package harness

import (
	"context"
	"testing"
)

// TestDigestInsensitiveToChecker pins that the coherence checker is
// purely observational: a run digests identically with CheckInvariants
// on and off. The allocation-free fast paths are only taken with the
// checker off, so this equivalence is the proof that disabling it does
// not change simulated behavior.
func TestDigestInsensitiveToChecker(t *testing.T) {
	cfgOn := goldenCfg()
	cfgOff := goldenCfg()
	cfgOff.Arch.CheckInvariants = false
	for _, bench := range []string{"MD5", "Jacobi"} {
		for _, kind := range goldenKinds {
			on, err := Run(context.Background(), Job{Bench: bench, Kind: kind, Cfg: cfgOn})
			if err != nil {
				t.Fatal(err)
			}
			off, err := Run(context.Background(), Job{Bench: bench, Kind: kind, Cfg: cfgOff})
			if err != nil {
				t.Fatal(err)
			}
			if on.Digest() != off.Digest() {
				t.Errorf("%s/%s: digest differs with checker on (%016x) vs off (%016x)",
					bench, kind, on.Digest(), off.Digest())
			}
		}
	}
}

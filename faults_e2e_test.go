// End-to-end coverage of the fault-injection public API: configuration
// validation at system construction, the verifier's violation-storage
// cap under a pathologically broken policy, and a degraded benchmark run
// through the exported experiment surface.
package tdnuca_test

import (
	"context"
	"strings"
	"testing"

	"tdnuca"
)

// TestNewSystemRejectsBadConfigs is the construction-time validation
// table: configurations that cannot produce a meaningful machine must be
// refused with a descriptive error, not simulated or panicked on.
func TestNewSystemRejectsBadConfigs(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(c *tdnuca.Config)
		policy tdnuca.PolicyKind
		want   string
	}{
		{
			name:   "zero banks",
			mutate: func(c *tdnuca.Config) { c.NumCores = 0; c.MeshWidth = 0; c.MeshHeight = 0 },
			policy: tdnuca.SNUCA,
			want:   "mesh",
		},
		{
			name:   "mesh does not tile the core count",
			mutate: func(c *tdnuca.Config) { c.MeshWidth = 3 },
			policy: tdnuca.SNUCA,
			want:   "NumCores",
		},
		{
			name:   "L1 larger than one LLC bank",
			mutate: func(c *tdnuca.Config) { c.L1Bytes = c.LLCBankBytes * 2 },
			policy: tdnuca.SNUCA,
			want:   "L1",
		},
		{
			name:   "TD-NUCA without RRT entries",
			mutate: func(c *tdnuca.Config) { c.RRTEntries = 0 },
			policy: tdnuca.TDNUCA,
			want:   "RRTEntries",
		},
		{
			name:   "bypass-only variant without RRT entries",
			mutate: func(c *tdnuca.Config) { c.RRTEntries = 0 },
			policy: tdnuca.TDBypassOnly,
			want:   "RRTEntries",
		},
		{
			name:   "runtime-only variant without RRT entries",
			mutate: func(c *tdnuca.Config) { c.RRTEntries = 0 },
			policy: tdnuca.TDNoISA,
			want:   "RRTEntries",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tdnuca.ScaledConfig()
			tc.mutate(&cfg)
			_, err := tdnuca.NewSystem(tdnuca.SystemConfig{Arch: &cfg, Policy: tc.policy})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("NewSystem = %v, want error containing %q", err, tc.want)
			}
		})
	}
	// The control: a zero-RRT machine is fine for policies that never
	// consult the RRT.
	cfg := tdnuca.ScaledConfig()
	cfg.RRTEntries = 0
	if _, err := tdnuca.NewSystem(tdnuca.SystemConfig{Arch: &cfg, Policy: tdnuca.SNUCA}); err != nil {
		t.Errorf("S-NUCA with zero RRT entries rejected: %v", err)
	}
}

// TestVerifierViolationCapEndToEnd drives the migrating-home bug from
// faultinject_e2e_test.go hard enough to overflow the verifier's
// violation storage: the first violations are kept verbatim, the rest
// are only counted, and the final entry says how many were suppressed —
// the checker stays O(1) in memory no matter how broken the policy is.
func TestVerifierViolationCapEndToEnd(t *testing.T) {
	cfg := tdnuca.ScaledConfig()
	cfg.CheckInvariants = true
	sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{
		Arch:   &cfg,
		Custom: func(m *tdnuca.Machine) tdnuca.CustomPolicy { return &migratingHomePolicy{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := tdnuca.Region(0x100000, 512<<10)
	sys.Spawn("producer", []tdnuca.Dep{{Range: buf, Mode: tdnuca.Out}}, nil)
	for i := 0; i < 4; i++ {
		sys.Spawn("churn", []tdnuca.Dep{{Range: buf, Mode: tdnuca.InOut}}, nil)
	}
	sys.Spawn("reader", []tdnuca.Dep{{Range: buf, Mode: tdnuca.In}}, nil)
	sys.Wait()

	v := sys.Violations()
	if len(v) == 0 {
		t.Fatal("broken policy produced no violations")
	}
	last := v[len(v)-1]
	if !strings.Contains(last, "more violations") {
		t.Fatalf("violation list not capped: %d entries, last = %q", len(v), last)
	}
	// Stored entries stay bounded: the cap plus the summary line.
	if len(v) > 21 {
		t.Errorf("verifier stored %d violations, cap is 20 plus the summary", len(v))
	}
	for _, s := range v[:len(v)-1] {
		if strings.Contains(s, "more violations") {
			t.Errorf("summary line appeared before the end: %q", s)
		}
	}
}

// TestDegradedBenchmarkPublicAPI exercises the exported degraded-run
// surface: parse a scenario, run a benchmark under it, and check the
// fault counters and digest plumbing came through.
func TestDegradedBenchmarkPublicAPI(t *testing.T) {
	cfg := tdnuca.DefaultExperimentConfig()
	cfg.Factor = 1.0 / 256.0
	cfg.Arch.CheckInvariants = true
	sc, err := tdnuca.ParseFaults("bank=3@1000,link=1-2@2000")
	if err != nil {
		t.Fatal(err)
	}
	r, err := tdnuca.RunExperiment(context.Background(), tdnuca.ExperimentJob{Bench: "LU", Kind: tdnuca.TDNUCA, Cfg: cfg, Faults: sc})
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults.BankRetirements != 1 || r.Faults.LinkFailures != 1 {
		t.Errorf("faults applied = %d retirements, %d link failures", r.Faults.BankRetirements, r.Faults.LinkFailures)
	}
	if len(r.Violations) != 0 {
		t.Errorf("degraded run violated coherence: %v", r.Violations)
	}
	if r.Digest() == 0 {
		t.Error("degraded digest is zero")
	}
	healthy, err := tdnuca.RunExperiment(context.Background(), tdnuca.ExperimentJob{Bench: "LU", Kind: tdnuca.TDNUCA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	unfaulted := r
	unfaulted.Faults = nil // digest the run's own counters, not the fault report
	if unfaulted.Digest() == healthy.Digest() {
		t.Error("fault injection changed nothing observable")
	}
	if sev0 := tdnuca.FaultsAtSeverity(&cfg.Arch, 1, 0); len(sev0.Events) != 0 {
		t.Errorf("severity 0 scenario has %d events", len(sev0.Events))
	}
	if def := tdnuca.DefaultFaults(&cfg.Arch, 1); len(def.Events) != 3 {
		t.Errorf("default scenario has %d events, want 3", len(def.Events))
	}
}

package tdnuca

import (
	"context"
	"testing"

	"tdnuca/internal/harness"
	"tdnuca/internal/workloads"
)

// TestSystemMatchesRun: NewSystem and harness.Run build every policy
// through the one harness table, so a System configured like the
// experiment default and fed the same Table II spec must reproduce the
// harness run exactly — makespan, machine metrics and, for the TD-NUCA
// kinds, the manager counters.
func TestSystemMatchesRun(t *testing.T) {
	const bench = "Histo"
	cfg := harness.DefaultConfig()
	cfg.Factor = 1.0 / 128
	for _, kind := range []PolicyKind{SNUCA, RNUCA, TDNUCA, TDBypassOnly, TDNoISA} {
		want, err := harness.Run(context.Background(), harness.Job{Bench: bench, Kind: kind, Cfg: cfg})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		arch, rt := cfg.Arch, cfg.RT
		sys, err := NewSystem(SystemConfig{Arch: &arch, Policy: kind, Seed: cfg.Seed, FragEvery: cfg.FragEvery, Runtime: &rt})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		spec, ok := workloads.Get(bench, cfg.Factor)
		if !ok {
			t.Fatalf("no Table II benchmark %q", bench)
		}
		spec.Build(sys.rt)

		if got := Cycles(sys.Makespan()); got != want.Cycles {
			t.Errorf("%s: makespan %d, harness %d", kind, got, want.Cycles)
		}
		if got := sys.Metrics(); got != want.Metrics {
			t.Errorf("%s: metrics\n%+v\nharness\n%+v", kind, got, want.Metrics)
		}
		st, ok := sys.TDStats()
		if isTD := kind != SNUCA && kind != RNUCA; ok != isTD {
			t.Errorf("%s: TDStats ok = %v", kind, ok)
		}
		if ok && st != want.ManagerStats {
			t.Errorf("%s: manager stats\n%+v\nharness\n%+v", kind, st, want.ManagerStats)
		}
	}
}

package harness

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"tdnuca/internal/faults"
	"tdnuca/internal/sim"
)

// The degraded golden layer: the full benchmark x policy cross-product
// with the canonical severity-3 scenario injected (one bank retired at
// cycle 20k, one link killed at 50k, every RRT halved at 80k — all well
// inside every golden makespan), digest-pinned in its own golden file.

const faultSeed = 1

func degradedScenario() *faults.Scenario {
	cfg := goldenCfg()
	return faults.Default(&cfg.Arch, faultSeed)
}

var (
	degOnce  sync.Once
	degSuite Suite
	degErr   error
)

// degradedJob is the prototype job of the degraded golden suite.
func degradedJob() Job {
	return Job{Cfg: goldenCfg(), Faults: degradedScenario()}
}

func degradedSuite(t *testing.T) Suite {
	t.Helper()
	degOnce.Do(func() {
		degSuite, degErr = RunSuite(degradedJob(), 0, goldenKinds...)
	})
	if degErr != nil {
		t.Fatal(degErr)
	}
	return degSuite
}

const goldenFaultsPath = "testdata/golden_faults.txt"

const goldenFaultsHeader = `# Degraded golden suite digests: 8 benchmarks x {S-NUCA, R-NUCA, TD-NUCA}
# at factor 1/128, seed 1, coherence checking on, with the canonical
# severity-3 fault scenario injected (faults.Default, fault seed 1): one
# LLC bank retired, one mesh link killed, every RRT halved.
# Regenerate after an intentional behavioral change with:
#   go test ./internal/harness -run DegradedGolden -update
`

// TestDegradedGoldenDigests pins the fault-injected runs exactly like
// the healthy golden layer pins clean ones: any drift in how the
// simulator degrades fails this test.
func TestDegradedGoldenDigests(t *testing.T) {
	got := DigestSuite(degradedSuite(t)).String()
	if *update {
		if err := os.WriteFile(goldenFaultsPath, []byte(goldenFaultsHeader+got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFaultsPath)
		return
	}
	want, err := os.ReadFile(goldenFaultsPath)
	if err != nil {
		t.Fatalf("missing degraded golden file (generate with -update): %v", err)
	}
	if stripComments(string(want)) != stripComments(got) {
		t.Errorf("degraded suite digests drifted from %s.\n--- golden ---\n%s--- got ---\n%s"+
			"If the behavioral change is intentional, regenerate with:\n"+
			"  go test ./internal/harness -run DegradedGolden -update",
			goldenFaultsPath, stripComments(string(want)), got)
	}
}

// TestDegradedRunsStayCoherent is the tentpole's end-to-end acceptance:
// with a bank retired, a link dead and the RRTs halved mid-run, every
// benchmark under every policy must still complete with zero coherence
// violations, a consistent cycle stack, and every scheduled fault
// actually applied.
func TestDegradedRunsStayCoherent(t *testing.T) {
	cfg := goldenCfg()
	for bench, per := range degradedSuite(t) {
		for kind, r := range per {
			if len(r.Violations) != 0 {
				t.Errorf("%s/%s: %d violations under faults, first: %s",
					bench, kind, len(r.Violations), r.Violations[0])
			}
			f := r.Faults
			if f.BankRetirements != 1 || f.LinkFailures != 1 {
				t.Errorf("%s/%s: scenario not fully applied: %d bank retirements, %d link failures",
					bench, kind, f.BankRetirements, f.LinkFailures)
			}
			wantRRT := 0
			if kind == TDNUCA {
				wantRRT = 1
			}
			if f.RRTDegrades != wantRRT {
				t.Errorf("%s/%s: %d RRT degrades, want %d", bench, kind, f.RRTDegrades, wantRRT)
			}
			if f.FaultCycles == 0 {
				t.Errorf("%s/%s: fault injection charged zero cycles", bench, kind)
			}
			if total := r.Cycles * sim.Cycles(cfg.Arch.NumCores); r.Stack.Total() != total {
				t.Errorf("%s/%s: degraded cycle stack total %d != %d cores * makespan %d",
					bench, kind, r.Stack.Total(), cfg.Arch.NumCores, r.Cycles)
			}
			if r.Cycles == 0 {
				t.Errorf("%s/%s: zero makespan", bench, kind)
			}
		}
	}
}

// TestDegradedWorkerEquivalence proves fault injection preserves the
// determinism contract: the degraded cross-product digests identically
// regardless of the worker count.
func TestDegradedWorkerEquivalence(t *testing.T) {
	ref := DigestSuite(degradedSuite(t))
	other, err := RunSuite(degradedJob(), 3, goldenKinds...)
	if err != nil {
		t.Fatal(err)
	}
	if d := DigestSuite(other); !ref.Equal(d) {
		t.Errorf("degraded suite digest depends on worker count.\n--- ref ---\n%s--- 3 workers ---\n%s",
			ref.String(), d.String())
	}
}

// TestDegradedRejectsBadInput covers the validation edges: a policy that
// needs an RRT with none configured, and an invalid scenario.
func TestDegradedRejectsBadInput(t *testing.T) {
	cfg := goldenCfg()
	cfg.Arch.RRTEntries = 0
	if _, err := Run(context.Background(), Job{Bench: "LU", Kind: TDNUCA, Cfg: cfg, Faults: degradedScenario()}); err == nil ||
		!strings.Contains(err.Error(), "RRTEntries") {
		t.Errorf("TD-NUCA with zero RRT entries: got %v, want RRTEntries error", err)
	}
	if _, err := Run(context.Background(), Job{Bench: "LU", Kind: TDNUCA, Cfg: cfg}); err == nil {
		t.Error("healthy Run accepted TD-NUCA with zero RRT entries")
	}

	cfg = goldenCfg()
	bad := &faults.Scenario{Events: []faults.Event{{Kind: faults.BankRetire, Bank: cfg.Arch.NumCores}}}
	if _, err := Run(context.Background(), Job{Bench: "LU", Kind: SNUCA, Cfg: cfg, Faults: bad}); err == nil {
		t.Error("out-of-range bank retirement accepted")
	}
}

// TestResilienceSweep checks the degradation report: severity 0 is the
// normalization point (ratios exactly 1), ratios stay positive, and the
// sweep covers the full cross-product.
func TestResilienceSweep(t *testing.T) {
	s, _, results := runFigure(t, "resilience", goldenCfg())
	rep := resilience(faultSeed, results)
	const benches = 8
	if want := benches * len(coreKinds) * 4; len(rep.Points) != want {
		t.Fatalf("sweep has %d points, want %d", len(rep.Points), want)
	}
	for _, p := range rep.Points {
		if p.Severity == 0 {
			if p.MakespanX != 1 || p.TrafficX != 1 {
				t.Errorf("%s sev 0: ratios %.3f/%.3f, want 1/1", p.Benchmark, p.MakespanX, p.TrafficX)
			}
			if p.Faults.BankRetirements != 0 {
				t.Errorf("%s sev 0: faults injected into the healthy baseline", p.Benchmark)
			}
		} else {
			if p.MakespanX <= 0 || p.TrafficX <= 0 {
				t.Errorf("%s sev %d: non-positive ratio %.3f/%.3f",
					p.Benchmark, p.Severity, p.MakespanX, p.TrafficX)
			}
			if p.Faults.BankRetirements != 1 {
				t.Errorf("%s sev %d: bank retirement did not fire", p.Benchmark, p.Severity)
			}
		}
		if p.Violations != 0 {
			t.Errorf("%s/%s sev %d: %d violations", p.Benchmark, p.Policy, p.Severity, p.Violations)
		}
	}
	if !strings.Contains(s, "Resilience sweep") || !strings.Contains(s, "TD-NUCA") {
		t.Errorf("report rendering incomplete:\n%s", s)
	}
}

package workloads

import (
	"testing"

	"tdnuca/internal/arch"
	"tdnuca/internal/core"
	"tdnuca/internal/machine"
	"tdnuca/internal/policy"
	"tdnuca/internal/taskrt"
)

// tiny is a fast scale for unit tests.
const tiny Factor = 1.0 / 128.0

func runSNUCA(t *testing.T, spec Spec) (*machine.Machine, *taskrt.Runtime) {
	t.Helper()
	cfg := arch.ScaledConfig()
	cfg.CheckInvariants = true
	m := machine.MustNew(&cfg, 8, 1)
	m.SetPolicy(policy.NewSNUCA())
	rt := taskrt.New(m, nil, taskrt.DefaultOptions())
	spec.Build(rt)
	return m, rt
}

func runTD(t *testing.T, spec Spec, v core.Variant) (*machine.Machine, *core.Manager, *taskrt.Runtime) {
	t.Helper()
	cfg := arch.ScaledConfig()
	cfg.CheckInvariants = true
	m := machine.MustNew(&cfg, 8, 1)
	mg := core.NewManager(m, v)
	m.SetPolicy(mg)
	rt := taskrt.New(m, mg, taskrt.DefaultOptions())
	spec.Build(rt)
	return m, mg, rt
}

func TestAllBenchmarksRunCleanUnderSNUCA(t *testing.T) {
	for _, spec := range All(tiny) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, rt := runSNUCA(t, spec)
			if rt.ExecutedTasks() == 0 {
				t.Fatal("no tasks executed")
			}
			if rt.Makespan() == 0 {
				t.Error("zero makespan")
			}
			if m.Metrics().Accesses == 0 {
				t.Error("no memory accesses issued")
			}
			for _, v := range m.Violations() {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

func TestAllBenchmarksRunCleanUnderTDNUCA(t *testing.T) {
	for _, spec := range All(tiny) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, mg, rt := runTD(t, spec, core.Full)
			if rt.ExecutedTasks() == 0 {
				t.Fatal("no tasks executed")
			}
			if mg.Stats().Decisions == 0 {
				t.Error("TD-NUCA made no decisions")
			}
			for _, v := range m.Violations() {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

func TestAllBenchmarksRunCleanUnderBypassOnly(t *testing.T) {
	for _, spec := range All(tiny) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, _, rt := runTD(t, spec, core.BypassOnly)
			if rt.ExecutedTasks() == 0 {
				t.Fatal("no tasks executed")
			}
			for _, v := range m.Violations() {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

func TestTaskCountsMatchTableII(t *testing.T) {
	// Task counts are scale-independent and must stay in the ballpark of
	// Table II (exact structural counts for our decompositions).
	want := map[string]int{
		"Gauss":    2 * 40 * 40, // 3200, exactly Table II
		"Jacobi":   5 * 64,      // 320, exactly Table II
		"MD5":      128,         // exactly Table II
		"Redblack": 5 * 2 * 32,  // 320, exactly Table II
		"LU":       1240,        // Table II reports 1188 for a similar grid
		"Kmeans":   211,         // Table II reports 228
		"KNN":      504,         // Table II reports 448
		"Histo":    1892,        // Table II reports 1800
	}
	for _, spec := range All(tiny) {
		_, rt := runSNUCA(t, spec)
		if got := rt.ExecutedTasks(); got != want[spec.Name] {
			t.Errorf("%s: %d tasks, want %d", spec.Name, got, want[spec.Name])
		}
	}
}

func TestInputSizesScale(t *testing.T) {
	for _, name := range Names() {
		small, _ := Get(name, tiny)
		big, _ := Get(name, 2*tiny)
		if big.InputBytes <= small.InputBytes {
			t.Errorf("%s: input did not grow with factor (%d vs %d)", name, big.InputBytes, small.InputBytes)
		}
		if small.FootprintBytes < small.InputBytes {
			t.Errorf("%s: footprint %d below input %d", name, small.FootprintBytes, small.InputBytes)
		}
	}
}

func TestDefaultFactorInputsExceedLLC(t *testing.T) {
	// The paper chooses inputs exceeding LLC capacity; the scaled
	// geometry must preserve that against the scaled 1MB LLC.
	cfg := arch.ScaledConfig()
	for _, spec := range All(DefaultFactor) {
		if spec.Name == "LU" {
			// LU is calibrated to the paper's ~100% hit-ratio regime
			// (see luCapacityCalib): its input deliberately fits the LLC.
			continue
		}
		if spec.InputBytes <= uint64(cfg.LLCTotalBytes()) {
			t.Errorf("%s: input %d does not exceed scaled LLC %d", spec.Name, spec.InputBytes, cfg.LLCTotalBytes())
		}
	}
}

func TestBypassHeavyVsReuseHeavyClassification(t *testing.T) {
	// Fig. 3's split: MD5/Jacobi/Kmeans/Redblack predominantly NotReused;
	// Histo/KNN/LU predominantly reused (In/Out/Both).
	for _, name := range []string{"MD5", "Jacobi", "Kmeans", "Redblack", "Gauss"} {
		spec, _ := Get(name, tiny)
		_, mg, _ := runTD(t, spec, core.Full)
		c := mg.Directory().Classify(64)
		if c.NotReused*2 < c.DepBlocks() {
			t.Errorf("%s: NotReused %d of %d dep blocks; expected majority", name, c.NotReused, c.DepBlocks())
		}
	}
	for _, name := range []string{"Histo", "KNN", "LU"} {
		spec, _ := Get(name, tiny)
		_, mg, _ := runTD(t, spec, core.Full)
		c := mg.Directory().Classify(64)
		if c.NotReused*2 > c.DepBlocks() {
			t.Errorf("%s: NotReused %d of %d dep blocks; expected minority", name, c.NotReused, c.DepBlocks())
		}
	}
}

func TestGaussHasBothInOutStrips(t *testing.T) {
	spec, _ := Get("Gauss", tiny)
	_, mg, _ := runTD(t, spec, core.Full)
	c := mg.Directory().Classify(64)
	if c.Both == 0 {
		t.Error("Gauss strips should classify as Both In and Out")
	}
	// Strips are a small fraction of the blocks, as in the paper (~2%).
	if c.Both*4 > c.DepBlocks() {
		t.Errorf("Both blocks = %d of %d; expected a small fraction", c.Both, c.DepBlocks())
	}
}

func TestHistoIsWriteHeavy(t *testing.T) {
	// Histo's produced data (equalized image, partial histograms) is
	// written and then consumed: those blocks classify Out/Both and must
	// dominate the predicted-non-reused ones (Fig. 3, Fig. 15 analysis).
	spec, _ := Get("Histo", tiny)
	_, mg, _ := runTD(t, spec, core.Full)
	c := mg.Directory().Classify(64)
	if c.Both == 0 {
		t.Fatal("Histo produced no write-then-consumed blocks")
	}
	if c.Out+c.Both < c.NotReused {
		t.Errorf("Histo: Out+Both %d < NotReused %d; expected write-dominated", c.Out+c.Both, c.NotReused)
	}
}

// TestGetAndNames checks that Names, All, Get and Has are views of the
// one Table II registry: same names in Table II order, and Get builds
// the same spec All does, at the default scale and at 1/128.
func TestGetAndNames(t *testing.T) {
	want := []string{"Gauss", "Histo", "Jacobi", "Kmeans", "KNN", "LU", "MD5", "Redblack"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, f := range []Factor{DefaultFactor, tiny} {
		all := All(f)
		if len(all) != len(names) {
			t.Fatalf("factor %v: All has %d specs, Names %d", f, len(all), len(names))
		}
		for i, n := range names {
			if n != want[i] || all[i].Name != n {
				t.Errorf("factor %v: position %d: Names %q, All %q, Table II %q", f, i, n, all[i].Name, want[i])
			}
			if !Has(n) {
				t.Errorf("Has(%q) = false", n)
			}
			got, ok := Get(n, f)
			if !ok {
				t.Fatalf("factor %v: Get(%q) failed", f, n)
			}
			if got.Name != all[i].Name || got.Problem != all[i].Problem ||
				got.InputBytes != all[i].InputBytes || got.FootprintBytes != all[i].FootprintBytes {
				t.Errorf("factor %v: Get(%q) = {%q %q %d %d}, All = {%q %q %d %d}", f, n,
					got.Name, got.Problem, got.InputBytes, got.FootprintBytes,
					all[i].Name, all[i].Problem, all[i].InputBytes, all[i].FootprintBytes)
			}
		}
		for _, n := range []string{"nope", "gauss", "LU ", "", "gen:seed=1"} {
			if _, ok := Get(n, f); ok {
				t.Errorf("factor %v: Get(%q) succeeded", f, n)
			}
			if Has(n) {
				t.Errorf("Has(%q) = true", n)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	spec1, _ := Get("Kmeans", tiny)
	m1, rt1 := runSNUCA(t, spec1)
	spec2, _ := Get("Kmeans", tiny)
	m2, rt2 := runSNUCA(t, spec2)
	if rt1.Makespan() != rt2.Makespan() {
		t.Errorf("makespan diverged: %d vs %d", rt1.Makespan(), rt2.Makespan())
	}
	if m1.Metrics() != m2.Metrics() {
		t.Error("metrics diverged between identical runs")
	}
}

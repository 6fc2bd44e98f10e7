package tdnuca_test

import (
	"context"
	"strings"
	"testing"

	"tdnuca"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Policy() != tdnuca.TDNUCA {
		t.Errorf("default policy = %v", sys.Policy())
	}
	if got := sys.Config().NumCores; got != 16 {
		t.Errorf("default cores = %d", got)
	}
}

func TestNewSystemRejectsUnknownPolicy(t *testing.T) {
	if _, err := tdnuca.NewSystem(tdnuca.SystemConfig{Policy: "bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestSpaceSharedPolicies: space sharing builds TD-NUCA or S-NUCA
// processes only; every other policy is refused rather than silently
// run as TD-NUCA.
func TestSpaceSharedPolicies(t *testing.T) {
	cores := [][]int{{0, 1}, {2, 3}}
	for _, p := range []tdnuca.PolicyKind{"", tdnuca.TDNUCA, tdnuca.SNUCA} {
		if _, err := tdnuca.NewSpaceSharedSystems(tdnuca.SystemConfig{Policy: p}, cores); err != nil {
			t.Errorf("policy %q: %v", p, err)
		}
	}
	for _, p := range []tdnuca.PolicyKind{tdnuca.RNUCA, tdnuca.TDNoISA, tdnuca.TDBypassOnly, "bogus"} {
		if _, err := tdnuca.NewSpaceSharedSystems(tdnuca.SystemConfig{Policy: p}, cores); err == nil {
			t.Errorf("policy %q accepted", p)
		}
	}
	custom := tdnuca.SystemConfig{Custom: func(*tdnuca.Machine) tdnuca.CustomPolicy { return fixedBank{} }}
	if _, err := tdnuca.NewSpaceSharedSystems(custom, cores); err == nil {
		t.Error("custom policy accepted")
	}
}

func TestSystemTaskFlow(t *testing.T) {
	cfg := tdnuca.ScaledConfig()
	cfg.CheckInvariants = true
	sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{Arch: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	buf := tdnuca.Region(1<<20, 32<<10)
	sys.Spawn("producer", []tdnuca.Dep{{Range: buf, Mode: tdnuca.Out}}, nil)
	sys.Spawn("consumer", []tdnuca.Dep{{Range: buf, Mode: tdnuca.In}}, nil)
	sys.Wait()
	if sys.ExecutedTasks() != 2 {
		t.Errorf("executed = %d", sys.ExecutedTasks())
	}
	if sys.Makespan() == 0 {
		t.Error("zero makespan")
	}
	if sys.Metrics().Accesses == 0 {
		t.Error("no accesses recorded")
	}
	if v := sys.Violations(); len(v) > 0 {
		t.Errorf("violations: %v", v)
	}
	if st, ok := sys.TDStats(); !ok || st.Decisions == 0 {
		t.Errorf("TDStats = %+v, %v", st, ok)
	}
	if avg, max, ok := sys.RRTOccupancy(); !ok || max == 0 || avg <= 0 {
		t.Errorf("RRTOccupancy = %v/%v/%v", avg, max, ok)
	}
	if sys.DataMovement() == 0 {
		t.Error("no NoC data movement")
	}
	if sys.Energy(nil).Total() <= 0 {
		t.Error("no energy accounted")
	}
}

func TestSystemCustomBody(t *testing.T) {
	sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{Policy: tdnuca.SNUCA})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	r := tdnuca.Region(0, 4096)
	sys.Spawn("custom", []tdnuca.Dep{{Range: r, Mode: tdnuca.InOut}}, func(e *tdnuca.Exec) {
		ran = true
		e.Read(0)
		e.Write(64)
		e.Compute(100)
	})
	sys.Wait()
	if !ran {
		t.Fatal("custom body never ran")
	}
	if got := sys.Metrics().Accesses; got != 2 {
		t.Errorf("accesses = %d, want 2", got)
	}
}

func TestSystemNonTDPoliciesHaveNoTDStats(t *testing.T) {
	for _, kind := range []tdnuca.PolicyKind{tdnuca.SNUCA, tdnuca.RNUCA} {
		sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{Policy: kind})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sys.TDStats(); ok {
			t.Errorf("%v reported TD stats", kind)
		}
		if _, _, ok := sys.RRTOccupancy(); ok {
			t.Errorf("%v reported RRT occupancy", kind)
		}
	}
}

func TestCustomPolicyIntegration(t *testing.T) {
	sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{
		Custom: func(m *tdnuca.Machine) tdnuca.CustomPolicy { return fixedBank{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Policy() != "fixed-bank" {
		t.Errorf("policy = %v", sys.Policy())
	}
	sys.Spawn("t", []tdnuca.Dep{{Range: tdnuca.Region(0, 4096), Mode: tdnuca.Out}}, nil)
	sys.Wait()
	if sys.Metrics().LLCAccesses == 0 {
		t.Error("custom policy produced no LLC accesses")
	}
}

type fixedBank struct{}

func (fixedBank) Name() string       { return "fixed-bank" }
func (fixedBank) LookupPenalty() int { return 0 }
func (fixedBank) UsesRRT() bool      { return false }
func (fixedBank) Place(tdnuca.AccessContext) (tdnuca.Placement, tdnuca.Cycles) {
	return tdnuca.Placement{Kind: tdnuca.PlaceSingleBank, Bank: 7}, 0
}

func TestRunBenchmarkPublicAPI(t *testing.T) {
	cfg := tdnuca.DefaultExperimentConfig()
	cfg.Factor = 1.0 / 128.0
	r, err := tdnuca.RunExperiment(context.Background(), tdnuca.ExperimentJob{Bench: "MD5", Kind: tdnuca.TDNUCA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tasks != 128 || r.Cycles == 0 {
		t.Errorf("result = %+v", r)
	}
	if len(tdnuca.Benchmarks()) != 8 {
		t.Errorf("Benchmarks() = %v", tdnuca.Benchmarks())
	}
}

func TestTableIPublicAPI(t *testing.T) {
	tbl := tdnuca.TableI(tdnuca.DefaultExperimentConfig())
	if !strings.Contains(tbl.String(), "RRT") {
		t.Error("Table I missing RRT row")
	}
}

func TestContentionModelEndToEnd(t *testing.T) {
	run := func(contention bool) uint64 {
		cfg := tdnuca.ScaledConfig()
		cfg.NoCContention = contention
		cfg.CheckInvariants = true
		sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{Arch: &cfg, Policy: tdnuca.SNUCA})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			r := tdnuca.Region(tdnuca.Addr(i)<<20, 32<<10)
			sys.Spawn("t", []tdnuca.Dep{{Range: r, Mode: tdnuca.InOut}}, nil)
		}
		sys.Wait()
		if v := sys.Violations(); len(v) > 0 {
			t.Fatalf("violations under contention=%v: %v", contention, v)
		}
		return sys.Makespan()
	}
	off, on := run(false), run(true)
	if on <= off {
		t.Errorf("contended run (%d) not slower than uncontended (%d)", on, off)
	}
	if on > off*3 {
		t.Errorf("contended run %dx slower than uncontended; model blew up", on/off)
	}
	// Determinism under contention.
	if run(true) != on {
		t.Error("contended runs nondeterministic")
	}
}

func TestConfigsExposed(t *testing.T) {
	d := tdnuca.DefaultConfig()
	s := tdnuca.ScaledConfig()
	if d.LLCTotalBytes() != 32<<20 || s.LLCTotalBytes() != 1<<20 {
		t.Error("config helpers broken")
	}
	if tdnuca.DefaultRuntimeOptions().ComputePerBlock == 0 {
		t.Error("runtime options zeroed")
	}
}

package faults_test

import (
	"strings"
	"testing"

	"tdnuca/internal/arch"
	"tdnuca/internal/faults"
	"tdnuca/internal/machine"
	"tdnuca/internal/policy"
	"tdnuca/internal/sim"
)

func cfg(t *testing.T) arch.Config {
	t.Helper()
	c := arch.ScaledConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseRoundTrip(t *testing.T) {
	const s = "bank=3@5000,link=1-2@8000,rrt=8@12000,rrt=4:0@13000"
	sc, err := faults.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.String(); got != s {
		t.Errorf("round trip = %q, want %q", got, s)
	}
	if len(sc.Events) != 4 {
		t.Fatalf("parsed %d events", len(sc.Events))
	}
	if e := sc.Events[0]; e.Kind != faults.BankRetire || e.Bank != 3 || e.Cycle != 5000 {
		t.Errorf("event 0 = %+v", e)
	}
	if e := sc.Events[1]; e.Kind != faults.LinkFail || e.LinkA != 1 || e.LinkB != 2 {
		t.Errorf("event 1 = %+v", e)
	}
	if e := sc.Events[2]; e.Kind != faults.RRTShrink || e.Core != -1 || e.NewCapacity != 8 {
		t.Errorf("event 2 = %+v", e)
	}
	if e := sc.Events[3]; e.Core != 4 || e.NewCapacity != 0 {
		t.Errorf("event 3 = %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"bank3@5000",  // no =
		"bank=3",      // no @cycle
		"bank=x@10",   // bad bank
		"bank=3@-5",   // negative cycle
		"link=12@10",  // no A-B
		"link=1-x@10", // bad tile
		"rrt=a@10",    // bad capacity
		"rrt=1:b@10",  // bad capacity with core
		"disk=1@10",   // unknown kind
	} {
		if _, err := faults.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	sc, err := faults.Parse(" bank=1@10 , ,link=2-3@20 ")
	if err != nil || len(sc.Events) != 2 {
		t.Errorf("whitespace/empty segments: %v, %d events", err, len(sc.Events))
	}
}

func TestScenarioValidate(t *testing.T) {
	c := cfg(t)
	tests := []struct {
		name string
		sc   string
		want string
	}{
		{"bank out of range", "bank=16@10", "out of range"},
		{"bank negative", "bank=-1@10", "out of range"},
		{"double retirement", "bank=2@10,bank=2@20", "twice"},
		{"tile out of range", "link=0-99@10", "out of range"},
		{"non-adjacent link", "link=0-5@10", "not mesh neighbours"},
		{"negative rrt core", "rrt=-7:4@10", "core out of range"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := faults.Parse(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			err = sc.Validate(&c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate(%q) = %v, want %q", tc.sc, err, tc.want)
			}
		})
	}
	// Retiring every bank must be rejected even though each single
	// retirement is in range.
	all := &faults.Scenario{}
	for b := 0; b < c.NumCores; b++ {
		all.Events = append(all.Events, faults.Event{Kind: faults.BankRetire, Bank: b})
	}
	if err := all.Validate(&c); err == nil || !strings.Contains(err.Error(), "every bank") {
		t.Errorf("all-banks scenario: %v", err)
	}
}

func TestScenarioAtLadder(t *testing.T) {
	c := cfg(t)
	counts := []int{0, 1, 2, 3}
	for sev, want := range counts {
		sc := faults.ScenarioAt(&c, 42, sev)
		if len(sc.Events) != want {
			t.Errorf("severity %d: %d events, want %d", sev, len(sc.Events), want)
		}
		if err := sc.Validate(&c); err != nil {
			t.Errorf("severity %d: generated scenario invalid: %v", sev, err)
		}
	}
	// Deterministic in (config, seed, severity).
	a, b := faults.ScenarioAt(&c, 42, 3), faults.ScenarioAt(&c, 42, 3)
	if a.String() != b.String() {
		t.Errorf("same seed, different scenarios: %q vs %q", a, b)
	}
	if faults.Default(&c, 42).String() != a.String() {
		t.Error("Default is not severity 3")
	}
	// The RRT event halves the configured capacity for every core.
	last := a.Events[2]
	if last.Kind != faults.RRTShrink || last.Core != -1 || last.NewCapacity != c.RRTEntries/2 {
		t.Errorf("severity-3 RRT event = %+v", last)
	}
}

func TestInjectorAppliesDueEvents(t *testing.T) {
	c := cfg(t)
	m := machine.MustNew(&c, 0, 1)
	m.SetPolicy(policy.NewSNUCA())
	sc, err := faults.Parse("bank=3@100,link=1-2@200")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(&c); err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(m, nil, sc)

	if cyc := inj.Advance(50); cyc != 0 {
		t.Errorf("Advance(50) charged %d cycles before any event was due", cyc)
	}
	if !m.RetiredBanks().IsEmpty() || inj.Exhausted() {
		t.Error("events applied early")
	}
	if cyc := inj.Advance(100); cyc < arch.FaultBankRetireCycles {
		t.Errorf("Advance(100) charged %d, want at least the retirement floor %d",
			cyc, arch.FaultBankRetireCycles)
	}
	if !m.RetiredBanks().Has(3) {
		t.Error("bank 3 not retired at its scheduled cycle")
	}
	if len(m.Net.DeadLinks()) > 0 {
		t.Error("link failed before its scheduled cycle")
	}
	if cyc := inj.Advance(5000); cyc < arch.FaultLinkFailCycles {
		t.Errorf("Advance(5000) charged %d, want at least the link-fail cost %d",
			cyc, arch.FaultLinkFailCycles)
	}
	if len(m.Net.DeadLinks()) == 0 || !inj.Exhausted() {
		t.Error("link failure not applied")
	}
	st := inj.Stats()
	if st.BankRetirements != 1 || st.LinkFailures != 1 || st.RRTDegrades != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.FaultCycles < arch.FaultBankRetireCycles+arch.FaultLinkFailCycles {
		t.Errorf("fault cycles %d below the schedule's floor", st.FaultCycles)
	}
	if inj.Advance(99999) != 0 {
		t.Error("exhausted injector still charging")
	}
}

// TestInjectorSkipsRRTWithoutDegrader: policies without an RRT ignore
// RRTShrink events instead of crashing.
func TestInjectorSkipsRRTWithoutDegrader(t *testing.T) {
	c := cfg(t)
	m := machine.MustNew(&c, 0, 1)
	m.SetPolicy(policy.NewSNUCA())
	sc, err := faults.Parse("rrt=4@10")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(m, nil, sc)
	if cyc := inj.Advance(10); cyc != 0 {
		t.Errorf("RRT shrink without a degrader charged %d cycles", cyc)
	}
	if st := inj.Stats(); st.RRTDegrades != 0 {
		t.Errorf("stats counted a skipped degrade: %+v", st)
	}
	if !inj.Exhausted() {
		t.Error("skipped event not consumed")
	}
}

// countingDegrader records DegradeRRT calls.
type countingDegrader struct {
	calls []int
}

func (d *countingDegrader) DegradeRRT(core, newCapacity int) sim.Cycles {
	d.calls = append(d.calls, core)
	return 7
}

func TestInjectorFansRRTShrinkToAllCores(t *testing.T) {
	c := cfg(t)
	m := machine.MustNew(&c, 0, 1)
	m.SetPolicy(policy.NewSNUCA())
	sc, err := faults.Parse("rrt=4@10,rrt=2:1@20")
	if err != nil {
		t.Fatal(err)
	}
	deg := &countingDegrader{}
	inj := faults.NewInjector(m, deg, sc)
	if cyc := inj.Advance(10); cyc != 7*sim.Cycles(c.NumCores) {
		t.Errorf("all-cores shrink charged %d, want %d", cyc, 7*c.NumCores)
	}
	if len(deg.calls) != c.NumCores {
		t.Fatalf("all-cores shrink hit %d cores, want %d", len(deg.calls), c.NumCores)
	}
	inj.Advance(20)
	if got := deg.calls[len(deg.calls)-1]; got != 2 {
		t.Errorf("targeted shrink hit core %d, want 2", got)
	}
	if st := inj.Stats(); st.RRTDegrades != 2 {
		t.Errorf("stats = %+v", st)
	}
}

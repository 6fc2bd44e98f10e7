package harness

import (
	"strings"
	"testing"

	"tdnuca/internal/machine"
)

// TestParsePolicy pins every spelling the CLI and the service have
// ever accepted to its kind, in the letter cases users type, and
// rejects non-names.
func TestParsePolicy(t *testing.T) {
	spellings := map[PolicyKind][]string{
		SNUCA:        {"s", "snuca", "s-nuca"},
		RNUCA:        {"r", "rnuca", "r-nuca"},
		TDNUCA:       {"td", "tdnuca", "td-nuca"},
		TDBypassOnly: {"bypass", "td-bypass", "tdnuca-bypass"},
		TDNoISA:      {"noisa", "td-noisa", "tdnuca-noisa"},
	}
	if len(spellings) != len(policies) {
		t.Fatalf("test covers %d kinds, table has %d", len(spellings), len(policies))
	}
	for kind, names := range spellings {
		names = append(names, string(kind), strings.ToLower(string(kind)), strings.ToUpper(string(kind)))
		for _, name := range names {
			for _, spelled := range []string{name, strings.ToUpper(name)} {
				if got, ok := ParsePolicy(spelled); !ok || got != kind {
					t.Errorf("ParsePolicy(%q) = %q, %v; want %q", spelled, got, ok, kind)
				}
			}
		}
	}
	for _, name := range []string{"", "bogus", "all", "td ", " s", "S-NUCA (process 0)", "tdnuca-"} {
		if got, ok := ParsePolicy(name); ok {
			t.Errorf("ParsePolicy(%q) = %q, want rejected", name, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ParsePolicy("TDNUCA-NOISA") }); n != 0 {
		t.Errorf("ParsePolicy allocates %v times per call", n)
	}
}

// TestInstallPolicy checks what each row builds: a TD-NUCA kind hands
// its manager to the runtime as hooks, R-NUCA returns its policy, and
// only the runtime-only variant leaves placement to S-NUCA.
func TestInstallPolicy(t *testing.T) {
	cfg := fastCfg()
	for _, p := range policies {
		m, err := machine.New(&cfg.Arch, cfg.FragEvery, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		hooks, mgr, rn, err := InstallPolicy(p.kind, m, true)
		if err != nil {
			t.Fatalf("%s: %v", p.kind, err)
		}
		if (mgr != nil) != p.needsRRT || (hooks != nil) != p.needsRRT {
			t.Errorf("%s: manager %v, hooks %v; want both iff the kind needs the RRT", p.kind, mgr, hooks)
		}
		if mgr != nil && !mgr.EagerFlush {
			t.Errorf("%s: eagerFlush did not reach the manager", p.kind)
		}
		if (rn != nil) != (p.kind == RNUCA) {
			t.Errorf("%s: R-NUCA policy %v", p.kind, rn)
		}
		switch p.kind {
		case TDNUCA, TDBypassOnly:
			if m.Policy() != machine.Policy(mgr) {
				t.Errorf("%s: placement policy %q, want the manager", p.kind, m.Policy().Name())
			}
		case RNUCA:
			if m.Policy() != machine.Policy(rn) {
				t.Errorf("%s: placement policy %q, want the R-NUCA policy", p.kind, m.Policy().Name())
			}
		default:
			if got := m.Policy().Name(); got != "S-NUCA" {
				t.Errorf("%s: placement policy %q, want S-NUCA", p.kind, got)
			}
		}
	}

	m, err := machine.New(&cfg.Arch, cfg.FragEvery, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := InstallPolicy("warp-NUCA", m, false); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown kind: err = %v", err)
	}
	noRRT := cfg.Arch
	noRRT.RRTEntries = 0
	if m, err = machine.New(&noRRT, cfg.FragEvery, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := InstallPolicy(TDNoISA, m, false); err == nil || !strings.Contains(err.Error(), "RRTEntries") {
		t.Errorf("TD kind without RRT entries: err = %v", err)
	}
	if _, _, _, err := InstallPolicy(RNUCA, m, false); err != nil {
		t.Errorf("R-NUCA without RRT entries: %v", err)
	}
}

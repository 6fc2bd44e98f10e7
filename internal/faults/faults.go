// Package faults is the deterministic fault-injection subsystem: it
// degrades the simulated hardware mid-run — LLC banks retired, NoC links
// killed, RRTs shrunk — to prove the NUCA policies' graceful-degradation
// paths (the paper's RRT-miss and untracked-dependency fallbacks,
// Sec. III-B2/III-C) actually survive imperfect hardware. Everything is
// expressed in simulated cycles and seeded through sim.RNG: no wall
// clock, no global state, so degraded runs digest identically across
// worker counts exactly like healthy ones.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tdnuca/internal/arch"
	"tdnuca/internal/machine"
	"tdnuca/internal/sim"
)

// Kind is the type of one injected fault.
type Kind uint8

const (
	// BankRetire drains and retires one LLC bank (machine.RetireBank).
	BankRetire Kind = iota
	// LinkFail kills one bidirectional mesh link (noc.FailLink).
	LinkFail
	// RRTShrink reduces one core's (or every core's) RRT capacity.
	RRTShrink
)

// String names the fault kind using the -faults scenario syntax.
func (k Kind) String() string {
	switch k {
	case BankRetire:
		return "bank"
	case LinkFail:
		return "link"
	case RRTShrink:
		return "rrt"
	}
	return "fault(?)"
}

// Event is one scheduled fault.
type Event struct {
	Cycle sim.Cycles
	Kind  Kind

	Bank         int // BankRetire: the bank to retire
	LinkA, LinkB int // LinkFail: the link's endpoint tiles
	Core         int // RRTShrink: the core, or -1 for every core
	NewCapacity  int // RRTShrink: the new capacity (0 disables the RRT)
}

// String renders the event in the -faults scenario syntax.
func (e Event) String() string {
	switch e.Kind {
	case BankRetire:
		return fmt.Sprintf("bank=%d@%d", e.Bank, e.Cycle)
	case LinkFail:
		return fmt.Sprintf("link=%d-%d@%d", e.LinkA, e.LinkB, e.Cycle)
	case RRTShrink:
		// Only -1 means every core; any other core, even one Validate
		// will reject, is spelled out so that Parse round-trips it.
		if e.Core != -1 {
			return fmt.Sprintf("rrt=%d:%d@%d", e.Core, e.NewCapacity, e.Cycle)
		}
		return fmt.Sprintf("rrt=%d@%d", e.NewCapacity, e.Cycle)
	}
	return "fault(?)"
}

// Scenario is an ordered fault schedule. Events fire at task-dispatch
// boundaries: the injector applies every event whose cycle has passed
// when the next task starts, which is the only point where no task is
// mid-flight (the simulation executes task bodies atomically).
type Scenario struct {
	Events []Event
}

// String renders the scenario in the -faults syntax (Parse round-trips).
func (s *Scenario) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// sorted returns the events ordered by cycle, original order breaking
// ties — the application order the injector uses.
func (s *Scenario) sorted() []Event {
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })
	return evs
}

// Validate checks the scenario against a machine configuration: banks
// and tiles in range, no double retirement, at least one surviving bank,
// link endpoints adjacent, capacities non-negative. A valid scenario
// cannot make the injector's apply step fail mid-run.
func (s *Scenario) Validate(cfg *arch.Config) error {
	var retired arch.Mask
	for _, e := range s.sorted() {
		switch e.Kind {
		case BankRetire:
			if e.Bank < 0 || e.Bank >= cfg.NumCores {
				return fmt.Errorf("faults: %s: bank out of range [0,%d)", e, cfg.NumCores)
			}
			if retired.Has(e.Bank) {
				return fmt.Errorf("faults: %s: bank retired twice", e)
			}
			retired = retired.Set(e.Bank)
			if retired.Count() >= cfg.NumCores {
				return fmt.Errorf("faults: %s: scenario retires every bank", e)
			}
		case LinkFail:
			for _, tile := range []int{e.LinkA, e.LinkB} {
				if tile < 0 || tile >= cfg.NumCores {
					return fmt.Errorf("faults: %s: tile %d out of range [0,%d)", e, tile, cfg.NumCores)
				}
			}
			if cfg.Hops(e.LinkA, e.LinkB) != 1 {
				return fmt.Errorf("faults: %s: tiles are not mesh neighbours", e)
			}
		case RRTShrink:
			if e.Core < -1 || e.Core >= cfg.NumCores {
				return fmt.Errorf("faults: %s: core out of range", e)
			}
			if e.NewCapacity < 0 {
				return fmt.Errorf("faults: %s: negative capacity", e)
			}
		default:
			return fmt.Errorf("faults: unknown event kind %d", e.Kind)
		}
	}
	return nil
}

// ScenarioAt builds the canonical seeded scenario at a severity level:
//
//	0: no faults
//	1: one LLC bank retired
//	2: + one mesh link killed
//	3: + every core's RRT halved
//
// The choices are drawn from a sim.RNG seeded with the fault seed, so a
// (config, seed, severity) triple always yields the same scenario. The
// killed link is always horizontal: one horizontal link can never
// partition a mesh with at least two rows, so the scenario stays
// routable by construction (meshes with a single row get no link fault).
func ScenarioAt(cfg *arch.Config, seed uint64, severity int) *Scenario {
	rng := sim.NewRNG(seed)
	sc := &Scenario{}
	if severity >= 1 {
		sc.Events = append(sc.Events, Event{
			Cycle: arch.FaultBankRetireAtCycles,
			Kind:  BankRetire,
			Bank:  rng.Intn(cfg.NumCores),
			Core:  -1,
		})
	}
	if severity >= 2 && cfg.MeshWidth >= 2 && cfg.MeshHeight >= 2 {
		row := rng.Intn(cfg.MeshHeight)
		x := rng.Intn(cfg.MeshWidth - 1)
		sc.Events = append(sc.Events, Event{
			Cycle: arch.FaultLinkFailAtCycles,
			Kind:  LinkFail,
			LinkA: cfg.TileAt(x, row),
			LinkB: cfg.TileAt(x+1, row),
			Core:  -1,
		})
	}
	if severity >= 3 {
		sc.Events = append(sc.Events, Event{
			Cycle:       arch.FaultRRTShrinkAtCycles,
			Kind:        RRTShrink,
			Core:        -1,
			NewCapacity: cfg.RRTEntries / 2,
		})
	}
	return sc
}

// Default is the standard degraded-hardware scenario used by the golden
// suite and the smoke test: severity 3 (one retired bank, one dead link,
// halved RRTs).
func Default(cfg *arch.Config, seed uint64) *Scenario {
	return ScenarioAt(cfg, seed, 3)
}

// Parse reads the -faults CLI syntax: comma-separated events, each
// KIND=SPEC@CYCLE.
//
//	bank=3@20000      retire bank 3 at cycle 20000
//	link=1-2@50000    kill the mesh link between tiles 1 and 2
//	rrt=8@80000       shrink every core's RRT to 8 entries
//	rrt=4:0@80000     disable core 4's RRT
func Parse(s string) (*Scenario, error) {
	sc := &Scenario{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("faults: %q: want KIND=SPEC@CYCLE", part)
		}
		specAt := strings.SplitN(kv[1], "@", 2)
		if len(specAt) != 2 {
			return nil, fmt.Errorf("faults: %q: missing @CYCLE", part)
		}
		cycle, err := strconv.ParseInt(specAt[1], 10, 64)
		if err != nil || cycle < 0 {
			return nil, fmt.Errorf("faults: %q: bad cycle %q", part, specAt[1])
		}
		ev := Event{Cycle: sim.Cycles(cycle), Core: -1}
		spec := specAt[0]
		switch kv[0] {
		case "bank":
			ev.Kind = BankRetire
			if ev.Bank, err = strconv.Atoi(spec); err != nil {
				return nil, fmt.Errorf("faults: %q: bad bank %q", part, spec)
			}
		case "link":
			ev.Kind = LinkFail
			ab := strings.SplitN(spec, "-", 2)
			if len(ab) != 2 {
				return nil, fmt.Errorf("faults: %q: want link=A-B", part)
			}
			if ev.LinkA, err = strconv.Atoi(ab[0]); err != nil {
				return nil, fmt.Errorf("faults: %q: bad tile %q", part, ab[0])
			}
			if ev.LinkB, err = strconv.Atoi(ab[1]); err != nil {
				return nil, fmt.Errorf("faults: %q: bad tile %q", part, ab[1])
			}
		case "rrt":
			ev.Kind = RRTShrink
			cc := strings.SplitN(spec, ":", 2)
			if len(cc) == 2 {
				if ev.Core, err = strconv.Atoi(cc[0]); err != nil {
					return nil, fmt.Errorf("faults: %q: bad core %q", part, cc[0])
				}
				spec = cc[1]
			} else {
				spec = cc[0]
			}
			if ev.NewCapacity, err = strconv.Atoi(spec); err != nil {
				return nil, fmt.Errorf("faults: %q: bad capacity %q", part, spec)
			}
		default:
			return nil, fmt.Errorf("faults: %q: unknown kind %q (want bank, link or rrt)", part, kv[0])
		}
		sc.Events = append(sc.Events, ev)
	}
	return sc, nil
}

// RRTDegrader is implemented by policies whose RRT capacity can degrade
// (the TD-NUCA Manager). Policies without an RRT simply never see
// RRTShrink events.
type RRTDegrader interface {
	DegradeRRT(core, newCapacity int) sim.Cycles
}

// Stats counts the faults an injector applied.
type Stats struct {
	BankRetirements int
	LinkFailures    int
	RRTDegrades     int
	FaultCycles     sim.Cycles // total reconfiguration cycles charged
}

// Injector drives a Scenario against a machine. The runtime's OnDispatch
// hook calls Advance with each task's start time; due events are applied
// in order and their reconfiguration cost is returned, charging it to
// the dispatching core like any other runtime work.
type Injector struct {
	m      *machine.Machine
	deg    RRTDegrader
	events []Event
	next   int
	stats  Stats
}

// NewInjector builds an injector for a validated scenario. deg may be
// nil for policies without an RRT (RRTShrink events are then skipped).
func NewInjector(m *machine.Machine, deg RRTDegrader, sc *Scenario) *Injector {
	return &Injector{m: m, deg: deg, events: sc.sorted()}
}

// Advance applies every event due at or before now and returns the
// cycles the reconfigurations cost. Scenario validation guarantees the
// individual applications cannot fail; an error here is a programming
// bug and panics.
func (in *Injector) Advance(now sim.Cycles) sim.Cycles {
	var cyc sim.Cycles
	for in.next < len(in.events) && in.events[in.next].Cycle <= now {
		ev := in.events[in.next]
		in.next++
		switch ev.Kind {
		case BankRetire:
			l, err := in.m.RetireBank(ev.Bank)
			if err != nil {
				panic(fmt.Sprintf("faults: %s: %v (scenario not validated?)", ev, err))
			}
			cyc += l
			in.stats.BankRetirements++
		case LinkFail:
			if err := in.m.Net.FailLink(ev.LinkA, ev.LinkB); err != nil {
				panic(fmt.Sprintf("faults: %s: %v (scenario not validated?)", ev, err))
			}
			cyc += arch.FaultLinkFailCycles
			in.stats.LinkFailures++
		case RRTShrink:
			if in.deg == nil {
				continue
			}
			if ev.Core >= 0 {
				cyc += in.deg.DegradeRRT(ev.Core, ev.NewCapacity)
			} else {
				for c := 0; c < in.m.Cfg.NumCores; c++ {
					cyc += in.deg.DegradeRRT(c, ev.NewCapacity)
				}
			}
			in.stats.RRTDegrades++
		}
	}
	in.stats.FaultCycles += cyc
	return cyc
}

// Stats returns what the injector has applied so far.
func (in *Injector) Stats() Stats { return in.stats }

// Exhausted reports whether every scheduled event has fired.
func (in *Injector) Exhausted() bool { return in.next == len(in.events) }

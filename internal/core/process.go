package core

import (
	"fmt"

	"tdnuca/internal/arch"
	"tdnuca/internal/machine"
	"tdnuca/internal/sim"
	"tdnuca/internal/taskrt"
)

// Multiprogramming support (Sec. III-D): the RRTs are tagged with the OS
// process id, so several processes use them concurrently and nothing is
// saved or restored at context switches. A ProcessRouter owns the
// physical RRTs and dispatches every placement decision to the TD-NUCA
// manager of the process currently bound to the requesting core; each
// process's runtime gets its own Manager (its own RTCacheDirectory and
// decisions) attached through Attach.

// ProcessRouter is the machine.Policy for multiprogrammed TD-NUCA.
type ProcessRouter struct {
	m        *machine.Machine
	rrts     []*RRT
	managers map[int]*Manager
}

// NewProcessRouter creates the router and the shared per-core RRTs.
func NewProcessRouter(m *machine.Machine) *ProcessRouter {
	r := &ProcessRouter{m: m, managers: make(map[int]*Manager)}
	for i := 0; i < m.Cfg.NumCores; i++ {
		r.rrts = append(r.rrts, NewRRT(m.Cfg.RRTEntries))
	}
	return r
}

// Attach creates the TD-NUCA manager for one process, sharing the
// router's RRT hardware. Use the returned manager as the taskrt.Hooks of
// that process's runtime.
func (r *ProcessRouter) Attach(pid int, variant Variant) *Manager {
	if _, dup := r.managers[pid]; dup {
		panic(fmt.Sprintf("core: process %d already attached", pid))
	}
	mg := NewManager(r.m, variant)
	mg.pid = pid
	mg.rrts = r.rrts
	r.managers[pid] = mg
	return mg
}

// Manager returns the manager attached for a process.
func (r *ProcessRouter) Manager(pid int) *Manager { return r.managers[pid] }

// Name implements machine.Policy.
func (r *ProcessRouter) Name() string { return "TD-NUCA (multiprogrammed)" }

// LookupPenalty implements machine.Policy.
func (r *ProcessRouter) LookupPenalty() int { return r.m.Cfg.RRTLatency }

// UsesRRT implements machine.Policy.
func (r *ProcessRouter) UsesRRT() bool { return true }

// Place implements machine.Policy: the decision is delegated to the
// manager of the process bound to the requesting core; cores bound to a
// process without a manager fall back to interleaving.
func (r *ProcessRouter) Place(ac machine.AccessContext) (machine.Placement, sim.Cycles) {
	if mg, ok := r.managers[ac.Proc]; ok {
		return mg.Place(ac)
	}
	return machine.Placement{Kind: machine.Interleaved}, 0
}

// MigrateThread implements the paper's thread-migration rule: when the
// OS moves a process's thread from one core to another, the RRT entries
// belonging to the thread are migrated to the destination core and the
// data in the source core's private cache is invalidated (flushed, so
// dirty lines are not lost). Entries that do not fit in the destination
// RRT are dropped — their ranges fall back to interleaving, which is
// safe because the flush pushed their private-cache state out first.
// The runtime must also rebind the core (machine.BindCore) afterwards.
func (mg *Manager) MigrateThread(from, to int) sim.Cycles {
	var cyc sim.Cycles
	entries := mg.rrts[from].EntriesOf(mg.pid)
	for _, e := range entries {
		l, _ := mg.m.FlushL1Range(from, e.Range)
		cyc += l
		mg.rrts[from].RemoveOverlapping(mg.pid, e.Range)
		cyc += sim.Cycles(mg.cfg.RRTLatency)
		if mg.rrts[to].Insert(mg.pid, e.Range, e.Mask) {
			cyc += sim.Cycles(mg.cfg.RRTLatency)
		}
	}
	// Directory bookkeeping: registrations move with the thread.
	mg.dir.Each(func(de *DirEntry) {
		if de.registeredCores.Has(from) {
			de.registeredCores = de.registeredCores.Clear(from).Set(to)
		}
		if de.accessorCores.Has(from) {
			de.accessorCores = de.accessorCores.Set(to)
		}
		// A dependency pinned to the old core's bank stays there: the
		// mask in the migrated RRT entries still points at it, so reads
		// keep working and the next write transition relocates it as
		// usual.
	})
	mg.stats.Invalidates++
	return cyc
}

// BindRuntime binds every core in the mask to this manager's process on
// the machine (context switches, TLB flushes included) and returns the
// core list for taskrt.Options.Cores.
func (mg *Manager) BindRuntime(cores arch.Mask) []int {
	list := cores.Bits()
	for _, c := range list {
		mg.m.BindCore(c, mg.pid)
	}
	return list
}

// PID returns the process id this manager serves.
func (mg *Manager) PID() int { return mg.pid }

var _ taskrt.Hooks = (*Manager)(nil)
var _ machine.Policy = (*ProcessRouter)(nil)

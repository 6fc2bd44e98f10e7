package trace

import "tdnuca/internal/sim"

// CycleStack decomposes a run's aggregate core-cycles (makespan times
// cores) into where the time went, the paper-style stacked breakdown.
// Every cycle the runtime charges to a core clock lands in exactly one
// component, so Busy()+Idle equals NumCores*Makespan exactly (the
// harness asserts this for every benchmark and policy).
//
// The machine fills the memory-system components at the same sites that
// build each access's latency; the harness adds the runtime-side
// components and computes Idle as the remainder.
type CycleStack struct {
	// Compute is pure task computation (Exec.Compute and the per-block
	// sweep cost).
	Compute sim.Cycles
	// L1 covers address translation (TLB + page walks) and the private
	// cache lookup charged on every access.
	L1 sim.Cycles
	// LLC is the bank lookup time of demand requests and upgrades.
	LLC sim.Cycles
	// NoCHop is the topological mesh traversal on access critical paths:
	// routers and links at their unloaded latency.
	NoCHop sim.Cycles
	// NoCQueue is what the contention model adds beyond NoCHop: link
	// serialization and queueing delay.
	NoCQueue sim.Cycles
	// DRAM is time waiting on memory accesses on the critical path.
	DRAM sim.Cycles
	// RRT is the region-table lookup penalty on misses and upgrades.
	RRT sim.Cycles
	// Manager is policy overhead: placement extras (e.g. R-NUCA
	// reclassification flushes), write-observer work, and the TD-NUCA
	// task hooks (decisions, registrations, task-end flushes).
	Manager sim.Cycles
	// Runtime is the TDG construction cost charged to the creator thread.
	Runtime sim.Cycles
	// Idle is the remainder: scheduling gaps and barrier imbalance.
	Idle sim.Cycles
}

// Component is one named slice of a CycleStack, for rendering.
type Component struct {
	Name   string
	Cycles sim.Cycles
}

// Components returns the stack's slices in canonical display order,
// Idle last.
func (s CycleStack) Components() []Component {
	return []Component{
		{"compute", s.Compute},
		{"l1", s.L1},
		{"llc", s.LLC},
		{"noc-hop", s.NoCHop},
		{"noc-queue", s.NoCQueue},
		{"dram", s.DRAM},
		{"rrt", s.RRT},
		{"manager", s.Manager},
		{"runtime", s.Runtime},
		{"idle", s.Idle},
	}
}

// Busy sums every component except Idle.
func (s CycleStack) Busy() sim.Cycles {
	return s.Compute + s.L1 + s.LLC + s.NoCHop + s.NoCQueue +
		s.DRAM + s.RRT + s.Manager + s.Runtime
}

// Total is Busy plus Idle; for a finished run it equals the number of
// participating cores times the makespan.
func (s CycleStack) Total() sim.Cycles { return s.Busy() + s.Idle }

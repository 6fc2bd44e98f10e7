package core

import (
	"fmt"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/machine"
	"tdnuca/internal/sim"
	"tdnuca/internal/taskrt"
	"tdnuca/internal/trace"
)

// Variant selects which TD-NUCA design is simulated.
type Variant uint8

const (
	// Full is the complete TD-NUCA design: bypass + local bank mapping +
	// cluster replication.
	Full Variant = iota
	// BypassOnly is the Fig. 15 variant: only NotReused dependencies are
	// managed (bypassed); everything else stays address-interleaved.
	BypassOnly
	// NoISA is the Sec. V-E runtime-overhead configuration: the runtime
	// performs all RTCacheDirectory bookkeeping and placement decisions
	// but never executes the ISA instructions, so the cache hierarchy
	// behaves as S-NUCA. Pair it with the S-NUCA machine policy.
	NoISA
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Full:
		return "TD-NUCA"
	case BypassOnly:
		return "TD-NUCA (Bypass Only)"
	case NoISA:
		return "TD-NUCA (runtime only)"
	}
	return "TD-NUCA(?)"
}

// Decision is the outcome of the Fig. 7 placement flowchart for one
// dependency of one task.
type Decision uint8

const (
	// DecideBypass: UseDesc reached zero — no outstanding task uses the
	// dependency, so it bypasses the LLC.
	DecideBypass Decision = iota
	// DecideLocal: the dependency is written (out/inout) and maps to the
	// local LLC bank of the executing core for the task's duration.
	DecideLocal
	// DecideCluster: a reused read-only dependency, replicated in the
	// executing core's LLC cluster.
	DecideCluster
	// DecideUntracked: not managed by TD-NUCA (BypassOnly variant for
	// reused dependencies); falls back to interleaving.
	DecideUntracked
	// DecideReuse: the final use (UseDesc == 0) of a dependency that is
	// still resident in the LLC under a deferred mapping: the task reads
	// or writes it in place and the runtime frees the mapping afterwards.
	// This is the deferred-flush refinement of the Fig. 7 bypass arm —
	// with strict eager flushing the data would already be in DRAM and
	// the access would bypass; here it is served from where it still
	// lives, which is what the paper's LLC hit ratios imply (DESIGN.md).
	DecideReuse
	// DecideRemote: a read of a dependency resident in another core's
	// bank under a deferred local mapping, with too little remaining
	// reuse to justify replicating it: the reader's RRT points at the
	// owning bank and the data is read in place.
	DecideRemote
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case DecideBypass:
		return "bypass"
	case DecideLocal:
		return "local-bank"
	case DecideCluster:
		return "cluster-replicated"
	case DecideUntracked:
		return "untracked"
	case DecideReuse:
		return "reuse-resident"
	case DecideRemote:
		return "remote-read"
	}
	return "decision(?)"
}

// ManagerStats aggregates TD-NUCA activity over a run.
type ManagerStats struct {
	Decisions         uint64
	Bypasses          uint64
	LocalMappings     uint64
	ClusterMappings   uint64
	Untracked         uint64
	Reuses            uint64
	RemoteReads       uint64
	Registers         uint64
	Invalidates       uint64
	Flushes           uint64
	TransitionFlushes uint64
	RegisterFailures  uint64
	FlushCycles       sim.Cycles
	HookCycles        sim.Cycles
}

// Manager is the TD-NUCA runtime-system extension plus its hardware
// model: it owns the per-core RRTs and the RTCacheDirectory, implements
// machine.Policy (RRT range lookup on every private-cache miss and
// writeback) and taskrt.Hooks (the operational model of Sec. III-C2).
type Manager struct {
	m   *machine.Machine
	cfg *arch.Config

	rrts    []*RRT
	dir     *RTCacheDirectory
	variant Variant
	pid     int // the process this manager's runtime belongs to (ASID)

	// DecisionCost is the software cost, in cycles, of deciding the
	// placement of one dependency (the mapping algorithm Sec. V-E
	// identifies as the largest runtime-extension overhead).
	DecisionCost sim.Cycles
	// PollCost is the completion-register polling cost per flush.
	PollCost sim.Cycles
	// EagerFlush restores the strictest reading of Fig. 7: local-bank
	// dependencies are flushed from the bank and private caches at every
	// task end even when outstanding uses remain. The deferred scheme is
	// the default (DESIGN.md §6); this switch exists for the ablation.
	EagerFlush bool
	// ReplicateThreshold is the minimum number of outstanding uses
	// (UseDesc, which the runtime tracks anyway) an In dependency needs
	// before cluster replication pays for its extra memory fills. Below
	// it, resident data is read in place and fresh data stays
	// interleaved. Replication is a cost/benefit trade (ASR [13] does
	// this probabilistically in hardware); the runtime simply has the
	// exact reuse count.
	ReplicateThreshold int

	// decisions holds the placement decisions of the one task between its
	// TaskStarting and TaskEnded (the runtime runs the two back to back,
	// see taskrt.Hooks); started is that task's id, -1 when none is in
	// flight. Both buffers are reused from task to task.
	decisions []depDecision
	started   int
	phys      []amath.Range // translate's scratch buffer
	flushReg  FlushRegister
	stats     ManagerStats

	// DebugDecision, when non-nil, is invoked for every placement
	// decision — a tracing hook for debugging policies and workloads.
	DebugDecision func(task *taskrt.Task, core int, dep taskrt.Dep, dec Decision, e *DirEntry)
}

// depDecision is one dependency's decision, kept from TaskStarting to
// TaskEnded. Directory entries are never deleted, so the pointer stays
// valid and TaskEnded needs no directory lookup.
type depDecision struct {
	e        *DirEntry
	decision Decision
}

// NewManager creates a TD-NUCA manager for the machine. For Full and
// BypassOnly the manager must also be installed as the machine's policy;
// for NoISA install policy.NewSNUCA() instead.
func NewManager(m *machine.Machine, variant Variant) *Manager {
	mg := &Manager{
		m:                  m,
		cfg:                m.Cfg,
		dir:                NewRTCacheDirectory(),
		variant:            variant,
		DecisionCost:       arch.ManagerDecisionCycles,
		PollCost:           arch.ManagerPollCycles,
		ReplicateThreshold: 24,
		started:            -1,
	}
	for i := 0; i < m.Cfg.NumCores; i++ {
		mg.rrts = append(mg.rrts, NewRRT(m.Cfg.RRTEntries))
	}
	return mg
}

// Name implements machine.Policy.
func (mg *Manager) Name() string { return mg.variant.String() }

// LookupPenalty implements machine.Policy: the RRT lookup delay added to
// private-cache misses and writebacks.
func (mg *Manager) LookupPenalty() int { return mg.cfg.RRTLatency }

// UsesRRT implements machine.Policy.
func (mg *Manager) UsesRRT() bool { return true }

// Directory exposes the RTCacheDirectory (for stats and tests).
func (mg *Manager) Directory() *RTCacheDirectory { return mg.dir }

// RRTs exposes the per-core Runtime Region Tables.
func (mg *Manager) RRTs() []*RRT { return mg.rrts }

// Stats returns a snapshot of the manager's counters.
func (mg *Manager) Stats() ManagerStats { return mg.stats }

// FlushRegisterPolls returns how often the runtime polled the
// memory-mapped completion register.
func (mg *Manager) FlushRegisterPolls() uint64 { return mg.flushReg.Polls() }

// Place implements machine.Policy: the RRT of the requesting core is
// consulted; a hit dictates bypass, a single bank, or cluster
// interleaving, and a miss falls back to S-NUCA address interleaving.
func (mg *Manager) Place(ac machine.AccessContext) (machine.Placement, sim.Cycles) {
	mask, ok := mg.rrts[ac.Core].Lookup(ac.Proc, ac.PA)
	if !ok {
		return machine.Placement{Kind: machine.Interleaved}, 0
	}
	if mask.IsEmpty() {
		return machine.Placement{Kind: machine.Bypass}, 0
	}
	if b := mask.Single(); b >= 0 {
		return machine.Placement{Kind: machine.SingleBank, Bank: b}, 0
	}
	return machine.Placement{Kind: machine.BankSet, Set: mask}, 0
}

// TaskCreated implements taskrt.Hooks: the use descriptor of every
// dependency is incremented when a task referencing it enters the TDG.
func (mg *Manager) TaskCreated(t *taskrt.Task) {
	for _, d := range t.Deps {
		mg.dir.Entry(d).UseDesc++
	}
}

// TaskStarting implements taskrt.Hooks: after the scheduler assigned the
// task to a core, the runtime decrements each dependency's use
// descriptor, runs the Fig. 7 decision flowchart, performs any
// read-only-to-written transition cleanup, and issues tdnuca_register.
func (mg *Manager) TaskStarting(t *taskrt.Task, core int) sim.Cycles {
	var cyc sim.Cycles
	decs := mg.decisions[:0]
	for _, d := range t.Deps {
		e := mg.dir.Entry(d)
		e.UseDesc--
		e.accessorCores = e.accessorCores.Set(core)
		if d.Mode.Reads() {
			e.everIn = true
		}
		if d.Mode.Writes() {
			e.everOut = true
		}

		cyc += mg.DecisionCost
		mg.stats.Decisions++
		e.useCount++
		var dec Decision
		switch {
		case e.UseDesc == 0:
			// Predicted non-reused (Fig. 7's bypass arm). If the data is
			// still resident under a deferred mapping it is used in place
			// and freed afterwards; a final *read* of data resident via
			// untracked (interleaved) use is also served in place rather
			// than re-fetched from DRAM around its own cached copies.
			// Only data not in the LLC truly bypasses.
			e.bypassCount++
			switch {
			case e.kind != mapNone:
				dec = DecideReuse
			case e.usedUntracked && !d.Mode.Writes():
				dec = DecideUntracked
			default:
				dec = DecideBypass
			}
		case mg.variant == BypassOnly:
			dec = DecideUntracked
		case d.Mode.Writes():
			dec = DecideLocal
		default:
			// A reused read-only dependency. Join existing replicas, read
			// locally-resident data in place, replicate fresh data whose
			// remaining reuse amortizes the replica fills, and leave
			// low-reuse fresh data interleaved.
			switch {
			case e.kind == mapCluster:
				dec = DecideCluster
			case e.kind == mapLocal:
				dec = DecideRemote
			case e.UseDesc >= mg.ReplicateThreshold:
				dec = DecideCluster
			default:
				dec = DecideUntracked
			}
		}
		decs = append(decs, depDecision{e: e, decision: dec})
		if tr := mg.m.Tracer(); tr != nil {
			tr.Emit(trace.EvDepDecision, t.StartedAt, core, uint64(t.ID), int32(dec))
		}
		if mg.DebugDecision != nil {
			mg.DebugDecision(t, core, d, dec, e)
		}

		if mg.variant == NoISA {
			// Bookkeeping only: no ISA instructions are executed.
			continue
		}

		// Transition cleanup (Sec. III-C2): invalidate every RRT entry and
		// flush every cached copy before a use that would otherwise read
		// or write around stale resident data:
		//   - writing a dependency that is replicated, pinned to another
		//     core's bank, or partially untracked;
		//   - reading a dependency through cluster replicas while a
		//     (possibly dirty) local-bank mapping still holds it;
		//   - bypassing a dependency with dirty untracked copies.
		// A write into the caller's own exclusive local mapping is exempt:
		// the data is already exactly where it is wanted.
		// stickyLocal: the dependency already lives in a bank under a
		// clean local mapping; instead of migrating it through DRAM, the
		// new writer keeps using that bank (MESI forwards any dirty lines
		// still in the previous owner's private cache). The BankMask
		// interface supports this directly; DESIGN.md §6 discusses it.
		stickyLocal := e.kind == mapLocal && len(e.untracked) == 0 && !e.dirtyUntracked
		alreadyMine := stickyLocal && e.localCore == core &&
			e.registeredCores == arch.MaskOf(core)
		var needCleanup bool
		switch dec {
		case DecideLocal:
			needCleanup = !stickyLocal && (e.kind != mapNone || !e.registeredCores.IsEmpty() ||
				len(e.untracked) > 0 || e.dirtyUntracked)
		case DecideCluster:
			needCleanup = e.kind == mapLocal || e.dirtyUntracked
		case DecideBypass:
			// Bypass writes go around the LLC, so any resident untracked
			// copy — clean or dirty — would go stale.
			needCleanup = e.dirtyUntracked || (d.Mode.Writes() && e.usedUntracked)
		case DecideReuse:
			// Two situations force a migration to DRAM and a plain bypass
			// instead of using the data in place: writing through replicas
			// (not well-defined), and a partially untracked mapping whose
			// dirty blocks live interleaved rather than under the parked
			// mask.
			if (d.Mode.Writes() && !(e.kind == mapLocal && e.localCore == core)) ||
				len(e.untracked) > 0 || e.dirtyUntracked {
				needCleanup = true
				dec = DecideBypass
				decs[len(decs)-1].decision = DecideBypass
			}
		}
		if needCleanup {
			// Flush first, invalidate second (the paper's stated order):
			// while the flush drains dirty private-cache lines, the still
			// live RRT entries route each writeback to its mapped bank,
			// from which the bank flush forwards it to memory.
			cyc += mg.flushEverywhere(core, e)
			if !e.registeredCores.IsEmpty() {
				cyc += mg.tdnucaInvalidate(core, e.Range, e.registeredCores)
				e.registeredCores = arch.Mask{}
			}
			e.MapMask = arch.Mask{}
			e.kind = mapNone
			e.untracked = e.untracked[:0]
			e.dirtyUntracked = false
			e.usedUntracked = false
			stickyLocal = false
		}

		switch dec {
		case DecideBypass:
			mg.stats.Bypasses++
			cyc += mg.tdnucaRegister(core, e, arch.Mask{})
			e.registeredCores = e.registeredCores.Set(core)
		case DecideLocal:
			mg.stats.LocalMappings++
			switch {
			case alreadyMine:
				// The mapping, the RRT entry and the data are already in
				// place: nothing to do.
			case stickyLocal:
				// Keep the dependency in the bank it already occupies;
				// this core's RRT just needs an entry pointing there.
				cyc += mg.tdnucaRegister(core, e, arch.MaskOf(e.localCore))
				e.registeredCores = e.registeredCores.Set(core)
			default:
				cyc += mg.tdnucaRegister(core, e, arch.MaskOf(core))
				e.MapMask = e.MapMask.Set(core)
				e.kind = mapLocal
				e.localCore = core
				e.registeredCores = e.registeredCores.Set(core)
			}
		case DecideCluster:
			mg.stats.ClusterMappings++
			if !e.registeredCores.Has(core) {
				mask := mg.cfg.ClusterMask(core)
				cyc += mg.tdnucaRegister(core, e, mask)
				e.MapMask = e.MapMask.Or(mask)
				e.kind = mapCluster
				e.registeredCores = e.registeredCores.Set(core)
			}
		case DecideRemote:
			mg.stats.RemoteReads++
			if !e.registeredCores.Has(core) {
				cyc += mg.tdnucaRegister(core, e, arch.MaskOf(e.localCore))
				e.registeredCores = e.registeredCores.Set(core)
			}
		case DecideReuse:
			mg.stats.Reuses++
			before := len(e.untracked)
			cyc += mg.tdnucaRegister(core, e, mg.reuseMask(core, e))
			e.registeredCores = e.registeredCores.Set(core)
			if len(e.untracked) > before {
				// The RRT could not hold the whole dependency: untracked
				// blocks would read interleaved banks while the data is
				// parked elsewhere. Interleaving is only a safe fallback
				// when memory is current, so migrate the dependency to
				// DRAM first (the registered sub-ranges simply refill).
				cyc += mg.flushEverywhere(core, e)
				e.dirtyUntracked = false
			}
		case DecideUntracked:
			mg.stats.Untracked++
			e.usedUntracked = true
			if d.Mode.Writes() {
				e.dirtyUntracked = true
			}
		}
	}
	mg.decisions = decs
	mg.started = t.ID
	mg.stats.HookCycles += cyc
	return cyc
}

// reuseMask picks the RRT mask for a final in-place use of a resident
// dependency: the pinned bank for a local mapping, or the caller's own
// cluster replica when present (any complete replica otherwise).
func (mg *Manager) reuseMask(core int, e *DirEntry) arch.Mask {
	if e.kind == mapLocal {
		return arch.MaskOf(e.localCore)
	}
	own := mg.cfg.ClusterMask(core)
	if e.MapMask.Contains(own) {
		return own
	}
	for cl := 0; cl < mg.cfg.NumClusters(); cl++ {
		m := mg.cfg.ClusterMask(mg.cfg.ClusterBanks(cl)[0])
		if e.MapMask.Contains(m) {
			return m
		}
	}
	// Degenerate (should not happen): fall back to the raw mask.
	return e.MapMask
}

// TaskEnded implements taskrt.Hooks: bypassed dependencies are flushed
// from the executing core's L1 and de-registered; reused (final-use)
// dependencies are flushed from every cache holding them and fully
// de-registered, freeing the LLC; local-bank mappings with outstanding
// uses stay resident (deferred flush — see DESIGN.md) as do cluster
// replicas (Sec. III-C2's lazy invalidation). It must follow the
// TaskStarting of the same task and panics otherwise.
func (mg *Manager) TaskEnded(t *taskrt.Task, core int) sim.Cycles {
	if t.ID != mg.started {
		panic(fmt.Sprintf("core: TaskEnded(task %d) does not follow its TaskStarting (started task: %d, -1 for none)", t.ID, mg.started))
	}
	mg.started = -1
	if mg.variant == NoISA {
		return 0
	}
	var cyc sim.Cycles
	coreMask := arch.MaskOf(core)
	for _, dd := range mg.decisions {
		e := dd.e
		switch dd.decision {
		case DecideBypass:
			cyc += mg.tdnucaFlush(core, e.Range, LevelPrivate, coreMask)
			cyc += mg.tdnucaInvalidate(core, e.Range, coreMask)
			cyc += mg.flushUntracked(e)
			e.registeredCores = e.registeredCores.Clear(core)
		case DecideReuse:
			// Final use complete: write dirty data back and free every
			// cache and RRT entry still holding the dependency.
			cyc += mg.tdnucaFlush(core, e.Range, LevelPrivate, e.accessorCores)
			cyc += mg.tdnucaFlush(core, e.Range, LevelLLC, e.MapMask)
			cyc += mg.flushUntracked(e)
			cyc += mg.tdnucaInvalidate(core, e.Range, e.registeredCores)
			e.MapMask = arch.Mask{}
			e.kind = mapNone
			e.registeredCores = arch.Mask{}
			e.dirtyUntracked = false
			e.usedUntracked = false
		case DecideRemote:
			// The mapping persists with its owner; nothing to do.
		case DecideLocal:
			if mg.EagerFlush {
				// Paper-literal behaviour: flush the dependency from the
				// core's private cache and the local bank, then clear the
				// RRT entry, at every task end.
				cyc += mg.tdnucaFlush(core, e.Range, LevelPrivate, coreMask)
				cyc += mg.tdnucaFlush(core, e.Range, LevelLLC, e.MapMask.And(coreMask))
				cyc += mg.flushUntracked(e)
				cyc += mg.tdnucaInvalidate(core, e.Range, coreMask)
				e.MapMask = e.MapMask.Clear(core)
				e.kind = mapNone
				e.registeredCores = e.registeredCores.Clear(core)
			}
			// Otherwise the flush is deferred until the dependency
			// migrates or dies (DESIGN.md §6).
		case DecideCluster, DecideUntracked:
			// Cluster replicas stay resident (lazy invalidation);
			// untracked data needs no action beyond the dirtyUntracked
			// bookkeeping.
		}
	}
	mg.stats.HookCycles += cyc
	return cyc
}

// AvgRRTOccupancy returns the mean RRT occupancy across all cores
// (Sec. V-E reports 14.71 on the paper's machine).
func (mg *Manager) AvgRRTOccupancy() float64 {
	var sum float64
	n := 0
	for _, r := range mg.rrts {
		if r.occSamples > 0 {
			sum += r.AvgOccupancy()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxRRTOccupancy returns the peak occupancy of any core's RRT.
func (mg *Manager) MaxRRTOccupancy() int {
	max := 0
	for _, r := range mg.rrts {
		if r.MaxOccupancy() > max {
			max = r.MaxOccupancy()
		}
	}
	return max
}

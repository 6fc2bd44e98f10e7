package core

import (
	"tdnuca/internal/arch"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
)

// Graceful degradation of the TD-NUCA manager under injected hardware
// faults (internal/faults). The machine keeps degraded runs *correct* by
// itself — ResolveBank remaps every placement through the retirement map
// and the drain leaves DRAM current — so everything here is about keeping
// the manager's cached routing (RRT entries, RTCacheDirectory bookkeeping)
// consistent with the shrunken hardware, exercising exactly the fallback
// paths the paper specifies for RRT misses and failed registrations
// (Sec. III-B2, III-C).

// BankRetired implements machine.FaultObserver: after a bank is drained
// and retired, every RRT entry routed at it is invalidated — subsequent
// accesses to those regions miss the RRT and fall back to address
// interleaving, the paper's fallback path — and the directory bookkeeping
// for dependencies pinned to the dead bank is reset so the next use
// re-places them from scratch. Returns the reconfiguration cycles.
func (mg *Manager) BankRetired(bank int) sim.Cycles {
	var cyc sim.Cycles
	for c, rrt := range mg.rrts {
		removed := rrt.RemoveWithBank(bank)
		if removed == 0 {
			continue
		}
		cyc += sim.Cycles(mg.cfg.RRTLatency)
		if tr := mg.m.Tracer(); tr != nil {
			tr.EmitUntimed(trace.EvRRTEvict, c, uint64(removed), int32(rrt.Len()))
		}
	}
	mg.dir.Each(func(e *DirEntry) {
		switch {
		case e.kind == mapLocal && e.localCore == bank:
			// The pinned copy was drained to DRAM and every RRT entry for
			// a local mapping names the pinned bank, so all registrations
			// are gone: reset to unmapped. The untracked bookkeeping is
			// kept — interleaved copies live in surviving banks and must
			// still be flushed at the next transition.
			e.MapMask = arch.Mask{}
			e.kind = mapNone
			e.registeredCores = arch.Mask{}
		case e.kind == mapCluster && e.MapMask.Has(bank):
			// The dead bank's share of each replica is gone; surviving
			// replica banks keep serving. Cores whose cluster-mask entries
			// named the bank lost them (RemoveWithBank above) and read
			// interleaved from now on, which is safe: replicas are clean,
			// so memory is current. registeredCores may keep bits for
			// those cores; a stale bit only causes a no-op invalidation
			// or a skipped re-registration, never a stale access.
			e.MapMask = e.MapMask.Clear(bank)
		}
	})
	return cyc
}

// DegradeRRT implements the faults package's RRT-degradation hook: the
// core's table is shrunk (newCapacity 0 disables it) mid-run. Any
// dependency the core has registered first goes through the full
// transition cleanup — flush every cached copy, invalidate every
// registration, reset the mapping — the same proven sequence TaskStarting
// uses, which leaves DRAM current so the regions are safe to access
// untracked. Entries that still exceed the new capacity afterwards are
// evicted with their ranges flushed chip-wide for the same reason. From
// then on registrations fail at the lower capacity and the manager leans
// on the paper's untracked-dependency fallback. Returns the cycles the
// degradation cost.
func (mg *Manager) DegradeRRT(core, newCapacity int) sim.Cycles {
	var cyc sim.Cycles
	mg.dir.Each(func(e *DirEntry) {
		if !e.registeredCores.Has(core) {
			return
		}
		cyc += mg.flushEverywhere(core, e)
		cyc += mg.tdnucaInvalidate(core, e.Range, e.registeredCores)
		e.registeredCores = arch.Mask{}
		e.MapMask = arch.Mask{}
		e.kind = mapNone
		e.untracked = e.untracked[:0]
		e.dirtyUntracked = false
		e.usedUntracked = false
	})
	evicted := mg.rrts[core].SetCapacity(newCapacity)
	for _, en := range evicted {
		// Leftovers not owned by a live directory entry (e.g. another
		// process's registrations): migrate to DRAM before dropping.
		l, _ := mg.m.FlushRangeEverywhere(en.Range)
		cyc += l
	}
	cyc += arch.FaultRRTDegradeCycles
	if tr := mg.m.Tracer(); tr != nil {
		tr.EmitUntimed(trace.EvRRTDegrade, core, uint64(len(evicted)), int32(newCapacity))
	}
	return cyc
}

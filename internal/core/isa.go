package core

import (
	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
	"tdnuca/internal/vm"
)

// FlushRegister models the memory-mapped register with one bit per core
// that the hardware uses to signal tdnuca_flush completion (Sec. III-A).
// Flushes simulate synchronously, so the register's role here is to
// charge the polling-loop cost the runtime pays waiting on each flush and
// to keep the poll count observable.
type FlushRegister struct {
	pending arch.Mask
	polls   uint64
}

// Begin marks a flush in flight on a tile.
func (f *FlushRegister) Begin(tile int) { f.pending = f.pending.Set(tile) }

// Complete clears a tile's in-flight bit.
func (f *FlushRegister) Complete(tile int) { f.pending = f.pending.Clear(tile) }

// Poll models one polling-loop read of the register by the runtime and
// returns true when no flush is pending.
func (f *FlushRegister) Poll() bool {
	f.polls++
	return f.pending.IsEmpty()
}

// Polls returns the number of polling reads performed.
func (f *FlushRegister) Polls() uint64 { return f.polls }

// translate performs the iterative virtual-to-physical translation of
// Fig. 5 on the executing core's TLB: one TLB access per virtual page,
// contiguous physical pages collapsed into maximal ranges. The returned
// cycles charge the TLB accesses and any page walks. The ranges live in
// the manager's scratch buffer and are overwritten by the next call, so a
// caller must be done with them before translating again.
func (mg *Manager) translate(core int, vr amath.Range) ([]amath.Range, sim.Cycles) {
	tr := vm.TranslateRange(mg.m.Process(mg.pid).AS, mg.m.TLBs[core], vr, mg.phys)
	mg.phys = tr.Phys
	cyc := sim.Cycles(tr.TLBAccesses*mg.cfg.TLBLatency + tr.TLBMisses*mg.cfg.PageWalkLatency)
	return tr.Phys, cyc
}

// tdnucaRegister implements the tdnuca_register instruction: the virtual
// dependency range (trimmed to whole cache blocks, Sec. III-D) is
// translated page by page and each collapsed physical range is registered
// in the executing core's RRT with the given BankMask. Ranges that do not
// fit are recorded as untracked on the directory entry (they fall back to
// interleaving and must be included in the task-end flush if written).
func (mg *Manager) tdnucaRegister(core int, e *DirEntry, mask arch.Mask) sim.Cycles {
	vr := e.Range.InnerBlocks(mg.cfg.BlockBytes)
	phys, cyc := mg.translate(core, vr)
	rrt := mg.rrts[core]
	for _, pr := range phys {
		// The runtime always invalidates before re-registering a region,
		// so a region never has two live entries with different masks.
		rrt.RemoveOverlapping(mg.pid, pr)
		if rrt.Insert(mg.pid, pr, mask) {
			cyc += sim.Cycles(mg.cfg.RRTLatency) // one RRT write per entry
			if tr := mg.m.Tracer(); tr != nil {
				tr.EmitUntimed(trace.EvRRTInsert, core, uint64(pr.Start), int32(rrt.Len()))
			}
		} else {
			e.untracked = append(e.untracked, pr)
			mg.stats.RegisterFailures++
		}
	}
	mg.stats.Registers++
	return cyc
}

// tdnucaInvalidate implements the tdnuca_invalidate instruction: the
// range is translated on the executing core and the matching entries are
// removed from the RRTs of every core in the CoreMask.
func (mg *Manager) tdnucaInvalidate(execCore int, vr amath.Range, cores arch.Mask) sim.Cycles {
	vr = vr.InnerBlocks(mg.cfg.BlockBytes)
	phys, cyc := mg.translate(execCore, vr)
	cores.EachBit(func(c int) {
		removed := 0
		for _, pr := range phys {
			removed += mg.rrts[c].RemoveOverlapping(mg.pid, pr)
		}
		cyc += sim.Cycles(mg.cfg.RRTLatency)
		if tr := mg.m.Tracer(); tr != nil {
			tr.EmitUntimed(trace.EvRRTEvict, c, uint64(removed), int32(mg.rrts[c].Len()))
		}
	})
	mg.stats.Invalidates++
	return cyc
}

// CacheLevel selects the target of a tdnuca_flush.
type CacheLevel uint8

const (
	// LevelPrivate flushes the private (L1) caches of the CoreMask tiles.
	LevelPrivate CacheLevel = iota
	// LevelLLC flushes the LLC banks of the CoreMask tiles.
	LevelLLC
)

// tdnucaFlush implements the tdnuca_flush instruction: the range is
// translated and the blocks belonging to it are flushed from the selected
// cache level of every tile in the mask. The runtime's polling wait on
// the completion register is charged per flushed tile.
func (mg *Manager) tdnucaFlush(execCore int, vr amath.Range, level CacheLevel, tiles arch.Mask) sim.Cycles {
	vr = vr.InnerBlocks(mg.cfg.BlockBytes)
	phys, cyc := mg.translate(execCore, vr)
	tiles.EachBit(func(tile int) {
		mg.flushReg.Begin(tile)
		for _, pr := range phys {
			var l sim.Cycles
			if level == LevelPrivate {
				l, _ = mg.m.FlushL1Range(tile, pr)
			} else {
				l, _ = mg.m.FlushBankRange(tile, pr)
			}
			cyc += l
		}
		mg.flushReg.Complete(tile)
		mg.flushReg.Poll()
		cyc += mg.PollCost
	})
	mg.stats.Flushes++
	mg.stats.FlushCycles += cyc
	return cyc
}

// flushUntracked flushes the untracked (RRT-overflow) physical subranges
// of a dependency from every LLC bank: untracked blocks live interleaved
// across all banks, so all banks are targeted. This preserves correctness
// when a written dependency could not be fully registered.
func (mg *Manager) flushUntracked(e *DirEntry) sim.Cycles {
	var cyc sim.Cycles
	if len(e.untracked) == 0 {
		return 0
	}
	for _, pr := range e.untracked {
		for bank := 0; bank < mg.cfg.NumCores; bank++ {
			l, _ := mg.m.FlushBankRange(bank, pr)
			cyc += l
		}
	}
	e.untracked = e.untracked[:0]
	mg.stats.FlushCycles += cyc
	return cyc
}

// flushEverywhere removes every cached copy of a dependency chip-wide:
// all RRT entries invalidated and all caches flushed. Issued when a
// dependency transitions from read-only (replicated) to written
// (Sec. III-C2's lazy invalidation of cluster-replicated data).
func (mg *Manager) flushEverywhere(execCore int, e *DirEntry) sim.Cycles {
	vr := e.Range.InnerBlocks(mg.cfg.BlockBytes)
	phys, cyc := mg.translate(execCore, vr)
	for _, pr := range phys {
		l, _ := mg.m.FlushRangeEverywhere(pr)
		cyc += l
	}
	mg.stats.TransitionFlushes++
	mg.stats.FlushCycles += cyc
	return cyc
}

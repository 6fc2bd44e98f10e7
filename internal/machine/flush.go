package machine

import (
	"tdnuca/internal/amath"
	"tdnuca/internal/cache"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
)

// Flush cost model: a hardware flush engine walks whichever is smaller —
// the address range or the cache array — checking flushPipeline blocks
// per cycle, and issues writebacks for dirty blocks at flushIssueCycles
// apiece. Writeback data drains through the NoC and the memory
// controllers in the background (the traffic and energy are fully
// accounted, but their latency is off the flush's critical path): the
// completion register signals once all writebacks are ordered, which
// keeps flush overheads in the sub-percent range the paper reports
// (Sec. V-E).
const (
	flushPipeline    = 8
	flushIssueCycles = 1

	// flushCheckCycles is the cost of reading the flush engine's
	// completion register when a flush covers no blocks: the engine is
	// still consulted, but no scan starts and no FlushOp is recorded.
	flushCheckCycles = 1
)

func (m *Machine) flushScanCycles(r amath.Range, cacheLines int) sim.Cycles {
	blocks := r.NumBlocks(m.Cfg.BlockBytes)
	if cacheLines < blocks {
		blocks = cacheLines
	}
	return sim.Cycles((blocks + flushPipeline - 1) / flushPipeline)
}

// FlushL1Range flushes every block of the physical range from one core's
// private cache: dirty blocks are written back to their home (per the
// policy's placement, as tdnuca_flush does), clean blocks are dropped.
// It returns the cycles the flush occupied and the number of blocks
// flushed. This implements tdnuca_flush with cache_level = private.
func (m *Machine) FlushL1Range(core int, r amath.Range) (sim.Cycles, int) {
	if r.NumBlocks(m.Cfg.BlockBytes) == 0 {
		m.met.FlushCycles += flushCheckCycles
		return flushCheckCycles, 0
	}
	m.met.FlushOps++
	l1 := m.L1s[core]
	lat := m.flushScanCycles(r, l1.Sets()*l1.Ways())
	var dirty []amath.Addr
	n := l1.FlushRange(r, func(block amath.Addr, st cache.State, _ int) {
		if st == cache.Modified {
			dirty = append(dirty, block)
		} else {
			m.verifyL1Drop(core, block)
		}
	})
	for _, block := range dirty {
		lat += m.flushWriteback(core, block)
	}
	m.met.FlushedBlocks += uint64(n)
	m.met.FlushCycles += lat
	if m.tr != nil {
		m.tr.EmitUntimed(trace.EvFlushOp, core, uint64(n), 0)
	}
	return lat, n
}

// flushWriteback routes one dirty block flushed from an L1 to its home,
// like writebackFromL1 but returning the latency (flushes are synchronous:
// the runtime waits on the completion register).
func (m *Machine) flushWriteback(core int, pa amath.Addr) sim.Cycles {
	m.met.L1Writebacks++
	m.policyLookup()
	pl, _ := m.policy.Place(AccessContext{Core: core, Proc: m.coreProc[core], PA: pa, Write: true, Writeback: true})
	if pl.Kind == Bypass {
		mc := m.nearestMC[core]
		m.Net.SendData(core, mc)
		m.met.DRAMWrites++
		m.verifyWritebackToMemory(core, pa)
		m.verifyL1Drop(core, pa)
		return flushIssueCycles
	}
	bank := m.ResolveBank(pl, pa)
	m.Net.SendData(core, bank)
	b := m.Banks[bank]
	m.met.LLCWritebacksIn++
	if st, slot := b.Cache.ProbeSlot(pa); st.IsValid() {
		b.Cache.SetState(pa, cache.Modified)
		e := &b.dir[slot]
		if e.owner == core {
			e.owner = -1
		}
		e.sharers = e.sharers.Clear(core)
	} else {
		m.fillBank(bank, pa, cache.Modified) // adopt with no owner and no sharers
	}
	m.verifyWritebackToBank(core, bank, pa)
	m.verifyL1Drop(core, pa)
	return flushIssueCycles
}

// FlushBankRange flushes every block of the physical range from one LLC
// bank: all L1 copies are back-invalidated first (dirty owners write back
// through the bank), then dirty bank lines are written to DRAM and the
// lines and directory entries are dropped. This implements tdnuca_flush
// with cache_level = LLC and the relocation flushes of R-NUCA.
func (m *Machine) FlushBankRange(bank int, r amath.Range) (sim.Cycles, int) {
	if r.NumBlocks(m.Cfg.BlockBytes) == 0 {
		m.met.FlushCycles += flushCheckCycles
		return flushCheckCycles, 0
	}
	// Policies flush by the bank they believe owns the data (R-NUCA
	// reclassification, TD-NUCA transitions); after a retirement that
	// data lives on the bank's survivor, so the flush follows the map.
	bank = m.bankMap[bank]
	m.met.FlushOps++
	b := m.Banks[bank]
	lat := m.flushScanCycles(r, b.Cache.Slots())
	n := b.Cache.FlushRange(r, func(block amath.Addr, st cache.State, slot int) {
		lat += m.flushBankLine(bank, block, st, b.dir[slot])
	})
	m.met.FlushedBlocks += uint64(n)
	m.met.FlushCycles += lat
	if m.tr != nil {
		m.tr.EmitUntimed(trace.EvFlushOp, bank, uint64(n), 1)
	}
	return lat, n
}

// flushBankLine does the coherence work of flushing one line out of a
// bank, given the line's state and directory entry: it back-invalidates
// the L1 copies, writes the line to DRAM if it or an L1 copy was dirty,
// and returns the flush engine's issue cycles for those messages. The
// caller removes the line from the bank.
func (m *Machine) flushBankLine(bank int, pa amath.Addr, st cache.State, e dirEntry) sim.Cycles {
	dirty, sent := m.backInvalidate(bank, pa, e)
	lat := sim.Cycles(sent) * flushIssueCycles
	if dirty || st == cache.Modified {
		m.writebackBankLine(bank, pa)
		lat += flushIssueCycles
	}
	m.verifyBankDrop(bank, pa)
	return lat
}

// FlushRangeEverywhere flushes a physical range from every L1 and every
// LLC bank on the chip, used by R-NUCA when a replicated read-only page
// transitions to read-write and by TD-NUCA when an In dependency is about
// to be written (Sec. III-C2, lazy invalidation of replicas).
func (m *Machine) FlushRangeEverywhere(r amath.Range) (sim.Cycles, int) {
	var lat sim.Cycles
	total := 0
	for core := range m.L1s {
		l, n := m.FlushL1Range(core, r)
		lat += l
		total += n
	}
	for bank := range m.Banks {
		l, n := m.FlushBankRange(bank, r)
		lat += l
		total += n
	}
	return lat, total
}

package machine

import (
	"tdnuca/internal/amath"
	"tdnuca/internal/cache"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
)

// invalidateCopies removes every L1 copy of the block except the one held
// by the requesting core, returning the latency of the slowest
// invalidation round trip (invalidations proceed in parallel). If the
// exclusive owner holds a Modified copy it is written back to the bank
// first so the LLC has current data. slot is the block's line in the
// bank and e its directory entry.
func (m *Machine) invalidateCopies(bank, slot int, pa amath.Addr, e *dirEntry, except int, now sim.Cycles) sim.Cycles {
	// Only the slowest round trip is on the critical path, so the cycle
	// stack charges that one trip: its topological part to NoCHop and the
	// queueing remainder to NoCQueue.
	var worst, worstTopo sim.Cycles
	//tdnuca:allow(alloc) non-escaping closure over locals: inlined/stack-allocated, confirmed by the AllocsPerRun tests
	invalidateOne := func(core int) {
		if core == except {
			return
		}
		invHops, invLat := m.Net.SendCtrlAt(bank, core, now)
		rt := invLat
		rtTopo := sim.Cycles(m.Cfg.HopLatency(invHops))
		st, l1slot := m.L1s[core].ProbeSlot(pa)
		if st.IsValid() {
			if st == cache.Modified {
				// Dirty copy travels back with the acknowledgment.
				m.verifyOwnerWriteback(core, bank, pa)
				wbHops, wbLat := m.Net.SendDataAt(core, bank, now+rt)
				rt += wbLat
				rtTopo += sim.Cycles(m.Cfg.HopLatency(wbHops))
				m.Banks[bank].Cache.SetStateSlot(slot, cache.Modified)
				m.met.LLCWritebacksIn++
			} else {
				ackHops, ackLat := m.Net.SendCtrlAt(core, bank, now+rt)
				rt += ackLat
				rtTopo += sim.Cycles(m.Cfg.HopLatency(ackHops))
			}
			m.L1s[core].InvalidateSlot(l1slot)
			m.met.Invalidations++
			if m.tr != nil {
				m.tr.Emit(trace.EvDirInval, now, core, uint64(pa), int32(bank))
			}
			m.verifyL1Drop(core, pa)
		} else {
			// Silently evicted earlier; the ack still travels.
			ackHops, ackLat := m.Net.SendCtrlAt(core, bank, now+rt)
			rt += ackLat
			rtTopo += sim.Cycles(m.Cfg.HopLatency(ackHops))
		}
		if rt > worst {
			worst = rt
			worstTopo = rtTopo
		}
	}
	if e.owner >= 0 {
		invalidateOne(e.owner)
	}
	e.sharers.EachBit(invalidateOne)
	m.cs.NoCHop += worstTopo
	m.cs.NoCQueue += worst - worstTopo
	return worst
}

// fetchFromOwner resolves a read request that hit a bank whose directory
// records an exclusive owner: the bank queries the owner; a Modified copy
// is written back (the bank's data becomes current) and the owner
// downgrades to Shared. A clean or silently-evicted copy just
// acknowledges. The directory entry is downgraded to the sharer form.
// slot is the block's line in the bank and e its directory entry.
func (m *Machine) fetchFromOwner(bank, slot int, pa amath.Addr, e *dirEntry, now sim.Cycles) sim.Cycles {
	owner := e.owner
	fwdHops, fwdLat := m.Net.SendCtrlAt(bank, owner, now)
	m.chargeNoC(fwdHops, fwdLat)
	lat := fwdLat
	m.met.OwnerForwards++
	if m.tr != nil {
		m.tr.Emit(trace.EvDirForward, now, owner, uint64(pa), int32(bank))
	}
	st, l1slot := m.L1s[owner].ProbeSlot(pa)
	switch st {
	case cache.Modified:
		m.verifyOwnerWriteback(owner, bank, pa)
		wbHops, wbLat := m.Net.SendDataAt(owner, bank, now+lat)
		m.chargeNoC(wbHops, wbLat)
		lat += wbLat
		m.Banks[bank].Cache.SetStateSlot(slot, cache.Modified)
		m.met.LLCWritebacksIn++
		m.L1s[owner].SetStateSlot(l1slot, cache.Shared)
		e.sharers = e.sharers.Set(owner)
	case cache.Exclusive, cache.Shared:
		ackHops, ackLat := m.Net.SendCtrlAt(owner, bank, now+lat)
		m.chargeNoC(ackHops, ackLat)
		lat += ackLat
		m.L1s[owner].SetStateSlot(l1slot, cache.Shared)
		e.sharers = e.sharers.Set(owner)
	default:
		// Silent eviction: owner no longer has the block.
		ackHops, ackLat := m.Net.SendCtrlAt(owner, bank, now+lat)
		m.chargeNoC(ackHops, ackLat)
		lat += ackLat
	}
	e.owner = -1
	return lat
}

// memFetchToBank fetches a block from DRAM into an LLC bank (an LLC
// miss): control to the nearest memory controller, the DRAM access, and
// the data response, then the fill with inclusive victim handling. It
// returns the latency and the block's slot in the bank.
func (m *Machine) memFetchToBank(bank int, pa amath.Addr, now sim.Cycles) (sim.Cycles, int) {
	mc := m.nearestMC[bank]
	reqHops, reqLat := m.Net.SendCtrlAt(bank, mc, now)
	m.chargeNoC(reqHops, reqLat)
	lat := reqLat + sim.Cycles(m.Cfg.DRAMLatency)
	m.cs.DRAM += sim.Cycles(m.Cfg.DRAMLatency)
	m.met.DRAMReads++
	if m.tr != nil {
		m.tr.Emit(trace.EvDRAMRead, now+reqLat, bank, uint64(pa), int32(mc))
	}
	respHops, respLat := m.Net.SendDataAt(mc, bank, now+lat)
	m.chargeNoC(respHops, respLat)
	lat += respLat
	slot := m.fillBank(bank, pa, cache.Exclusive)
	m.verifyBankFillFromMemory(bank, pa)
	return lat, slot
}

// fillBank inserts a block into a bank, evicting and back-invalidating a
// victim if needed (the LLC is inclusive: evicting a block removes every
// L1 copy). Eviction handling is off the demand critical path, so it
// produces traffic and energy but no added latency. It returns the
// block's slot, whose directory entry it resets to no owner and no
// sharers.
func (m *Machine) fillBank(bank int, pa amath.Addr, st cache.State) int {
	b := m.Banks[bank]
	if b.dir == nil {
		//tdnuca:allow(alloc) once per bank, at its first fill: machines that never touch a bank never pay for its directory
		b.dir = make([]dirEntry, b.Cache.Slots())
	}
	m.met.LLCFills++
	v := b.Cache.Insert(pa, st)
	e := b.dir[v.Slot]
	b.dir[v.Slot] = dirEntry{owner: -1}
	if !v.Occurred {
		return v.Slot
	}
	m.met.LLCEvictions++
	if m.tr != nil {
		m.tr.EmitUntimed(trace.EvLLCEvict, bank, uint64(v.Addr), 0)
	}
	if dirty, _ := m.backInvalidate(bank, v.Addr, e); dirty || v.State == cache.Modified {
		m.writebackBankLine(bank, v.Addr)
		if m.tr != nil {
			m.tr.EmitUntimed(trace.EvDRAMWrite, bank, uint64(v.Addr), int32(m.nearestMC[bank]))
		}
	}
	m.verifyBankDrop(bank, v.Addr)
	return v.Slot
}

// backInvalidate removes every L1 copy that e, the directory entry of a
// bank line being evicted, flushed or drained, records (the LLC is
// inclusive). Each recorded core gets an invalidation and answers with
// its dirty data or an acknowledgment. It reports whether an L1 copy was
// dirty and how many invalidations it sent.
func (m *Machine) backInvalidate(bank int, pa amath.Addr, e dirEntry) (dirty bool, sent int) {
	//tdnuca:allow(alloc) non-escaping closure over locals: inlined/stack-allocated, confirmed by the AllocsPerRun tests
	inv := func(core int) {
		sent++
		m.Net.SendCtrl(bank, core)
		st, l1slot := m.L1s[core].ProbeSlot(pa)
		if st.IsValid() {
			if st == cache.Modified {
				m.verifyOwnerWriteback(core, bank, pa)
				m.Net.SendData(core, bank)
				m.met.LLCWritebacksIn++
				dirty = true
			} else {
				m.Net.SendCtrl(core, bank)
			}
			m.L1s[core].InvalidateSlot(l1slot)
			m.met.Invalidations++
			m.verifyL1Drop(core, pa)
		} else {
			m.Net.SendCtrl(core, bank)
		}
	}
	if e.owner >= 0 {
		inv(e.owner)
	}
	e.sharers.EachBit(inv)
	return dirty, sent
}

// writebackBankLine writes a dirty line leaving a bank to DRAM through
// the bank's nearest memory controller.
func (m *Machine) writebackBankLine(bank int, pa amath.Addr) {
	m.Net.SendData(bank, m.nearestMC[bank])
	m.met.DRAMWrites++
	m.met.LLCWritebacksOut++
	m.verifyBankWritebackToMemory(bank, pa)
}

package machine

import (
	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/cache"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
)

// Access simulates one memory access with an unspecified start time
// (cycle 0) — fine for tests and for machines without the NoC contention
// model. The runtime uses AccessAt with the core's clock.
//
//tdnuca:hotpath
func (m *Machine) Access(core int, va amath.Addr, write bool) sim.Cycles {
	return m.AccessAt(core, va, write, 0)
}

// AccessAt simulates one memory access by a core to a virtual address,
// starting at cycle `now` on that core, and returns its latency. The
// path is: TLB (+walk on miss), L1 lookup, and on a miss the policy
// lookup (RRT), the NoC trip to the destination LLC bank or memory
// controller (queued and serialized per link when contention is on), the
// bank/directory actions, and a possible DRAM fetch, exactly as
// Sec. III-B3 describes.
//
//tdnuca:hotpath
func (m *Machine) AccessAt(core int, va amath.Addr, write bool, now sim.Cycles) sim.Cycles {
	if m.policy == nil {
		panic("machine: Access before SetPolicy")
	}
	m.met.Accesses++
	lat := sim.Cycles(m.Cfg.TLBLatency)
	if !m.TLBs[core].Access(uint64(va) / uint64(m.Cfg.PageBytes)) {
		lat += sim.Cycles(m.Cfg.PageWalkLatency)
	}
	pa := m.procAS(core).TranslateMRU(&m.trans[core], va).AlignDown(m.Cfg.BlockBytes)

	lat += sim.Cycles(m.Cfg.L1Latency)
	m.cs.L1 += lat // translation + private-cache lookup, charged on every access
	st := m.L1s[core].Access(pa)
	if m.tr != nil {
		if st.IsValid() {
			m.tr.Emit(trace.EvL1Hit, now, core, uint64(pa), 0)
		} else {
			m.tr.Emit(trace.EvL1Miss, now, core, uint64(pa), 0)
		}
	}
	switch st {
	case cache.Modified:
		m.met.L1Hits++
		if write {
			m.goldenWrite(core, pa)
		} else {
			m.verifyL1Read(core, pa)
		}
		return lat
	case cache.Exclusive:
		m.met.L1Hits++
		if write {
			// Silent E->M upgrade: no coherence action, but the page-table
			// dirty bit is set, so an OS-based policy still observes it.
			m.L1s[core].SetState(pa, cache.Modified)
			m.goldenWrite(core, pa)
			if m.writeObs != nil {
				w := m.writeObs.ObserveWrite(AccessContext{Core: core, Proc: m.coreProc[core], VA: va, PA: pa, Write: true})
				lat += w
				m.cs.Manager += w
			}
		} else {
			m.verifyL1Read(core, pa)
		}
		return lat
	case cache.Shared:
		m.met.L1Hits++
		if write {
			lat += m.upgrade(core, va, pa, now+lat)
			m.goldenWrite(core, pa)
		} else {
			m.verifyL1Read(core, pa)
		}
		return lat
	}

	// L1 miss.
	m.met.L1Misses++
	p := m.policyLookup()
	lat += p
	m.cs.RRT += p
	pl, extra := m.policy.Place(AccessContext{Core: core, Proc: m.coreProc[core], VA: va, PA: pa, Write: write})
	lat += extra
	m.cs.Manager += extra

	var fill cache.State
	if pl.Kind == Bypass {
		fill = cache.Exclusive
		if write {
			fill = cache.Modified
		}
		lat += m.bypassFill(core, pa, now+lat)
	} else {
		bank := m.ResolveBank(pl, pa)
		var l sim.Cycles
		l, fill = m.bankFill(core, pa, bank, write, now+lat)
		lat += l
	}

	m.insertL1(core, pa, fill, now+lat)
	if write {
		m.goldenWrite(core, pa)
	} else {
		m.verifyL1Read(core, pa)
	}
	return lat
}

// policyLookup charges the RRT lookup penalty and accounts its energy.
func (m *Machine) policyLookup() sim.Cycles {
	if m.policy.UsesRRT() {
		m.met.RRTLookups++
	}
	return sim.Cycles(m.policy.LookupPenalty())
}

// bypassFill services an L1 miss directly from DRAM through the nearest
// memory controller, skipping the LLC (Sec. III-B3, all-zero BankMask).
func (m *Machine) bypassFill(core int, pa amath.Addr, now sim.Cycles) sim.Cycles {
	m.met.BypassAccesses++
	mc := m.nearestMC[core]
	reqHops, reqLat := m.Net.SendCtrlAt(core, mc, now)
	m.chargeNoC(reqHops, reqLat)
	lat := reqLat + sim.Cycles(m.Cfg.DRAMLatency)
	m.cs.DRAM += sim.Cycles(m.Cfg.DRAMLatency)
	m.met.DRAMReads++
	if m.tr != nil {
		m.tr.Emit(trace.EvDRAMRead, now+reqLat, core, uint64(pa), int32(mc))
	}
	respHops, respLat := m.Net.SendDataAt(mc, core, now+lat)
	m.chargeNoC(respHops, respLat)
	m.verifyFillFromMemory(core, pa)
	return lat + respLat
}

// bankFill services an L1 miss at an LLC bank, handling the directory
// actions for MESI, and returns the latency and the L1 fill state.
func (m *Machine) bankFill(core int, pa amath.Addr, bank int, write bool, now sim.Cycles) (sim.Cycles, cache.State) {
	hops, reqLat := m.Net.SendCtrlAt(core, bank, now)
	m.chargeNoC(hops, reqLat)
	m.met.NUCADistSum += uint64(hops)
	m.met.NUCADistCnt++
	lat := reqLat + sim.Cycles(m.Cfg.LLCLatency)
	m.cs.LLC += sim.Cycles(m.Cfg.LLCLatency)

	b := m.Banks[bank]
	m.met.LLCAccesses++
	if st, slot := b.Cache.AccessSlot(pa); st.IsValid() {
		m.met.LLCHits++
		if m.tr != nil {
			m.tr.Emit(trace.EvLLCHit, now, core, uint64(pa), int32(bank))
		}
		e := &b.dir[slot]
		if write {
			lat += m.invalidateCopies(bank, pa, e, core, now+lat)
			e.sharers = arch.Mask{}
			e.owner = core
			// The LLC copy is now stale until the owner writes back; the
			// directory owner field covers reads in the meantime.
			m.verifyServeFromBank(core, bank, pa)
			respHops, respLat := m.Net.SendDataAt(bank, core, now+lat)
			m.chargeNoC(respHops, respLat)
			return lat + respLat, cache.Modified
		}
		// Read hit: if a core holds the block exclusively, forward.
		if e.owner >= 0 && e.owner != core {
			lat += m.fetchFromOwner(bank, pa, e, now+lat)
		}
		var st cache.State
		if e.owner == core {
			// Re-fetch by the owner itself (its L1 silently evicted an E
			// copy). It remains the exclusive owner.
			st = cache.Exclusive
			m.verifyServeFromBank(core, bank, pa)
		} else if e.owner < 0 && e.sharers.IsEmpty() {
			st = cache.Exclusive
			e.owner = core
			m.verifyServeFromBank(core, bank, pa)
		} else {
			st = cache.Shared
			e.sharers = e.sharers.Set(core)
			m.verifyServeFromBank(core, bank, pa)
		}
		respHops, respLat := m.Net.SendDataAt(bank, core, now+lat)
		m.chargeNoC(respHops, respLat)
		return lat + respLat, st
	}

	// LLC miss: fetch the block from memory into the bank.
	m.met.LLCMisses++
	if m.tr != nil {
		m.tr.Emit(trace.EvLLCMiss, now, core, uint64(pa), int32(bank))
	}
	fetchLat, slot := m.memFetchToBank(bank, pa, now+lat)
	lat += fetchLat
	st := cache.Exclusive
	if write {
		st = cache.Modified
	}
	b.dir[slot] = dirEntry{owner: core}
	m.verifyServeFromBank(core, bank, pa)
	respHops, respLat := m.Net.SendDataAt(bank, core, now+lat)
	m.chargeNoC(respHops, respLat)
	return lat + respLat, st
}

// upgrade handles a write hit on a Shared L1 line: the core asks the home
// bank to invalidate all other copies and grant ownership.
func (m *Machine) upgrade(core int, va, pa amath.Addr, now sim.Cycles) sim.Cycles {
	m.met.Upgrades++
	if m.tr != nil {
		m.tr.Emit(trace.EvDirUpgrade, now, core, uint64(pa), 0)
	}
	lat := m.policyLookup()
	m.cs.RRT += lat
	pl, extra := m.policy.Place(AccessContext{Core: core, Proc: m.coreProc[core], VA: va, PA: pa, Write: true})
	lat += extra
	m.cs.Manager += extra
	if pl.Kind == Bypass {
		// The dependency is no longer LLC-mapped; the runtime guarantees
		// exclusivity, so the local copy simply becomes Modified.
		m.L1s[core].SetState(pa, cache.Modified)
		return lat
	}
	bank := m.ResolveBank(pl, pa)
	hops, reqLat := m.Net.SendCtrlAt(core, bank, now+lat)
	m.chargeNoC(hops, reqLat)
	m.met.NUCADistSum += uint64(hops)
	m.met.NUCADistCnt++
	lat += reqLat + sim.Cycles(m.Cfg.LLCLatency)
	m.cs.LLC += sim.Cycles(m.Cfg.LLCLatency)
	m.met.LLCAccesses++

	b := m.Banks[bank]
	st, slot := b.Cache.ProbeSlot(pa)
	if st.IsValid() {
		m.met.LLCHits++
		if m.tr != nil {
			m.tr.Emit(trace.EvLLCHit, now, core, uint64(pa), int32(bank))
		}
	} else {
		// Inclusion was broken by a placement change; treat as a miss and
		// re-fetch the block into the bank.
		m.met.LLCMisses++
		if m.tr != nil {
			m.tr.Emit(trace.EvLLCMiss, now, core, uint64(pa), int32(bank))
		}
		var fetchLat sim.Cycles
		fetchLat, slot = m.memFetchToBank(bank, pa, now+lat)
		lat += fetchLat
	}
	e := &b.dir[slot]
	lat += m.invalidateCopies(bank, pa, e, core, now+lat)
	e.sharers = arch.Mask{}
	e.owner = core
	if !m.L1s[core].SetState(pa, cache.Modified) {
		// The policy's transition flush (e.g. R-NUCA demoting a written
		// read-only page) removed this core's own copy while deciding the
		// placement; refill it as a write miss so the store lands in an
		// M line. The bank already holds current data at this point.
		m.verifyServeFromBank(core, bank, pa)
		dataHops, dataLat := m.Net.SendDataAt(bank, core, now+lat)
		m.chargeNoC(dataHops, dataLat)
		lat += dataLat
		m.insertL1(core, pa, cache.Modified, now+lat)
		return lat
	}
	// Ownership grant: control response back to the core.
	ackHops, ackLat := m.Net.SendCtrlAt(bank, core, now+lat)
	m.chargeNoC(ackHops, ackLat)
	return lat + ackLat
}

// insertL1 fills a block into the core's L1, writing back a dirty victim
// according to the victim's own placement (the RRT is consulted on
// writebacks too, per Sec. III-B3).
func (m *Machine) insertL1(core int, pa amath.Addr, st cache.State, now sim.Cycles) {
	v := m.L1s[core].Insert(pa, st)
	m.verifyL1Fill(core, pa)
	if !v.Occurred {
		return
	}
	if v.State == cache.Modified {
		m.writebackFromL1(core, v.Addr, now)
	} else {
		// Silent eviction of a clean line (Table I). The directory keeps a
		// stale sharer/owner bit that later coherence actions tolerate.
		m.verifyL1Drop(core, v.Addr)
	}
}

// writebackFromL1 sends a dirty L1 victim to its home (bank or DRAM).
// Writebacks are off the demand critical path, but their traffic still
// occupies links under the contention model.
func (m *Machine) writebackFromL1(core int, pa amath.Addr, now sim.Cycles) {
	m.met.L1Writebacks++
	if m.tr != nil {
		m.tr.Emit(trace.EvL1Writeback, now, core, uint64(pa), 0)
	}
	m.policyLookup() // RRT consulted on writebacks; latency is off the critical path
	pl, _ := m.policy.Place(AccessContext{Core: core, Proc: m.coreProc[core], PA: pa, Write: true, Writeback: true})
	if pl.Kind == Bypass {
		mc := m.nearestMC[core]
		m.Net.SendDataAt(core, mc, now)
		m.met.DRAMWrites++
		if m.tr != nil {
			m.tr.Emit(trace.EvDRAMWrite, now, core, uint64(pa), int32(mc))
		}
		m.verifyWritebackToMemory(core, pa)
		m.verifyL1Drop(core, pa)
		return
	}
	bank := m.ResolveBank(pl, pa)
	m.Net.SendDataAt(core, bank, now)
	b := m.Banks[bank]
	m.met.LLCWritebacksIn++
	if st, slot := b.Cache.ProbeSlot(pa); st.IsValid() {
		b.Cache.SetState(pa, cache.Modified) // dirty at the LLC now
		if e := &b.dir[slot]; e.owner == core {
			e.owner = -1
		}
	} else {
		// Placement changed since the fill; adopt the block with no
		// owner and no sharers.
		m.fillBank(bank, pa, cache.Modified)
	}
	m.verifyWritebackToBank(core, bank, pa)
	m.verifyL1Drop(core, pa)
}

package machine

import (
	"fmt"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/cache"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
)

// LLC bank retirement. Retiring a bank is the NUCA analogue of mapping
// out a failed DRAM rank: the bank is drained through the existing flush
// machinery (every resident line back-invalidated from the L1s and, if
// dirty, written to DRAM), marked dead, and a deterministic retirement
// map sends its home sets to the nearest surviving bank. Because the map
// is applied inside ResolveBank — the single point every placement
// funnels through — all three policies degrade gracefully without
// policy-specific plumbing; policies that cache bank choices (the
// TD-NUCA Manager's RRT, R-NUCA's page table) additionally observe the
// retirement via FaultObserver to invalidate their stale bookkeeping.

// FaultObserver is an optional Policy extension notified after a bank
// has been drained and the retirement map rebuilt. Implementations must
// invalidate any cached placement naming the bank and return the cycles
// the cleanup cost (charged to the injecting scenario, off the access
// critical path).
type FaultObserver interface {
	BankRetired(bank int) sim.Cycles
}

// RetirementMap computes the bank remap for a set of retired banks: a
// pure function of (config, retired mask), identity for survivors, and
// nearest-surviving-bank (Manhattan hops, ties to the lowest bank id)
// for retired ones. Everyone who needs the remap derives it from this
// one function, which is what makes degraded runs deterministic; the
// property test pins that it is a map onto survivors and identity on
// them.
func RetirementMap(cfg *arch.Config, retired arch.Mask) []int {
	mp := make([]int, cfg.NumCores)
	for b := 0; b < cfg.NumCores; b++ {
		if !retired.Has(b) {
			mp[b] = b
			continue
		}
		best, bestHops := -1, 0
		for s := 0; s < cfg.NumCores; s++ {
			if retired.Has(s) {
				continue
			}
			if h := cfg.Hops(b, s); best < 0 || h < bestHops {
				best, bestHops = s, h
			}
		}
		mp[b] = best // -1 only if every bank is retired; RetireBank forbids that
	}
	return mp
}

// RetireBank drains one LLC bank and removes it from service: all
// resident lines are flushed (L1 copies back-invalidated, dirty data to
// DRAM), the retirement map is rebuilt, and a FaultObserver policy is
// told to drop its stale bookkeeping. Returns the cycles the drain and
// reconfiguration cost. Retiring the last surviving bank is an error.
func (m *Machine) RetireBank(bank int) (sim.Cycles, error) {
	if bank < 0 || bank >= m.Cfg.NumCores {
		return 0, fmt.Errorf("machine: bank %d out of range [0,%d)", bank, m.Cfg.NumCores)
	}
	if m.retired.Has(bank) {
		return 0, fmt.Errorf("machine: bank %d already retired", bank)
	}
	if m.retired.Count() == m.Cfg.NumCores-1 {
		return 0, fmt.Errorf("machine: cannot retire bank %d: no surviving bank would remain", bank)
	}
	lat := m.drainBank(bank)
	m.retired = m.retired.Set(bank)
	copy(m.bankMap, RetirementMap(m.Cfg, m.retired))
	if fo, ok := m.policy.(FaultObserver); ok {
		lat += fo.BankRetired(bank)
	}
	lat += arch.FaultBankRetireCycles
	if m.tr != nil {
		m.tr.EmitUntimed(trace.EvBankRetire, bank, uint64(lat), int32(m.bankMap[bank]))
	}
	return lat, nil
}

// RetiredBanks returns the mask of retired banks (zero when healthy).
func (m *Machine) RetiredBanks() arch.Mask { return m.retired }

// BankMap returns the live retirement map: BankMap()[b] is where a
// placement naming bank b actually lands. Identity on a healthy machine.
// Callers must not mutate it.
func (m *Machine) BankMap() []int { return m.bankMap }

// drainBank flushes every resident line out of a bank with
// FlushBankRange's per-line coherence work. FlushBankRange itself walks
// an address range — unusable here, where "the whole bank" would mean
// walking the entire physical address space — so the lines are
// enumerated from the cache array instead (EachResident's set-then-way
// order is deterministic) and invalidated one by one.
func (m *Machine) drainBank(bank int) sim.Cycles {
	b := m.Banks[bank]
	n := b.Cache.Resident()
	if n == 0 {
		m.met.FlushCycles += flushCheckCycles
		return flushCheckCycles
	}
	m.met.FlushOps++
	lat := sim.Cycles((n + flushPipeline - 1) / flushPipeline)
	b.Cache.EachResident(func(block amath.Addr, st cache.State, slot int) {
		lat += m.flushBankLine(bank, block, st, b.dir[slot])
		b.Cache.Invalidate(block)
	})
	m.met.FlushedBlocks += uint64(n)
	m.met.FlushCycles += lat
	if m.tr != nil {
		m.tr.EmitUntimed(trace.EvFlushOp, bank, uint64(n), 1)
	}
	return lat
}

// verifyBankAlive is the fault invariant "no access is ever served from
// a retired bank". ResolveBank calls it on every resolve once any bank
// is retired; because the retirement map targets only survivors, a
// firing means the map (or a policy bypassing it) is broken.
//
//tdnuca:allow(alloc) checker/fault path: reached only after a bank retirement, never on a healthy run
func (m *Machine) verifyBankAlive(bank int) {
	if !m.retired.Has(bank) {
		return
	}
	if m.ver != nil {
		m.ver.report("placement resolved to retired bank %d (map %v)", bank, m.bankMap)
		return
	}
	panic(fmt.Sprintf("machine: placement resolved to retired bank %d (map %v)", bank, m.bankMap))
}

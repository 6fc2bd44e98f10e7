package machine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/cache"
	"tdnuca/internal/sim"
)

// homeByAddrPolicy places a block by its physical address alone, so a
// block's home never moves while it is cached: blocks whose page number
// is even are interleaved, the rest are pinned to one bank chosen by the
// block number. Both placements the policies use therefore share the
// same small banks.
type homeByAddrPolicy struct{ cfg *arch.Config }

func (p *homeByAddrPolicy) Name() string       { return "home-by-addr-test" }
func (p *homeByAddrPolicy) LookupPenalty() int { return 0 }
func (p *homeByAddrPolicy) UsesRRT() bool      { return false }
func (p *homeByAddrPolicy) Place(ac AccessContext) (Placement, sim.Cycles) {
	if (uint64(ac.PA)/uint64(p.cfg.PageBytes))%2 == 0 {
		return Placement{Kind: Interleaved}, 0
	}
	block := uint64(ac.PA) / uint64(p.cfg.BlockBytes)
	return Placement{Kind: SingleBank, Bank: int(block*7) % p.cfg.NumCores}, 0
}

// dirLookup returns the directory entry a bank keeps for a block, and
// whether the bank holds the block at all.
func dirLookup(b *Bank, pa amath.Addr) (dirEntry, bool) {
	if st, slot := b.Cache.ProbeSlot(pa); st.IsValid() {
		return b.dir[slot], true
	}
	return dirEntry{}, false
}

// checkDirectory is the directory oracle. Every valid L1 line must be
// resident in its home bank (the LLC is inclusive), an E or M line's
// home entry must name that core as owner, an S line's must list it as
// a sharer, and no entry may have both an owner and sharers. Stale bits
// left by silent clean evictions are allowed: the check runs from the
// L1 lines to the directory, not back.
func checkDirectory(m *Machine) error {
	for bank, b := range m.Banks {
		var err error
		b.Cache.EachResident(func(block amath.Addr, _ cache.State, slot int) {
			if e := b.dir[slot]; err == nil && e.owner >= 0 && !e.sharers.IsEmpty() {
				err = fmt.Errorf("bank %d entry %#x has owner %d and sharers %v", bank, uint64(block), e.owner, e.sharers)
			}
		})
		if err != nil {
			return err
		}
	}
	for core, l1 := range m.L1s {
		var err error
		l1.EachResident(func(block amath.Addr, st cache.State, _ int) {
			if err != nil {
				return
			}
			pl, _ := m.policy.Place(AccessContext{Core: core, PA: block})
			bank := m.ResolveBank(pl, block)
			e, ok := dirLookup(m.Banks[bank], block)
			switch {
			case !ok:
				err = fmt.Errorf("core %d holds %#x (%v) but home bank %d does not hold it", core, uint64(block), st, bank)
			case st == cache.Shared && !e.sharers.Has(core):
				err = fmt.Errorf("core %d holds %#x in S but bank %d sharers are %v (owner %d)", core, uint64(block), bank, e.sharers, e.owner)
			case st != cache.Shared && e.owner != core:
				err = fmt.Errorf("core %d holds %#x in %v but bank %d owner is %d", core, uint64(block), st, bank, e.owner)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// TestDirectoryOracle drives random access streams, bank flushes,
// chip-wide flushes and one bank retirement over small 16-way banks and
// checks the directory against the L1 contents after every operation.
func TestDirectoryOracle(t *testing.T) {
	const (
		blocks = 512 // 32 KB of virtual space: 8 pages, 16x one bank's capacity
		ops    = 1500
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := arch.ScaledConfig()
		cfg.LLCBankBytes = 2 << 10 // 32 lines: 2 sets of 16 ways
		cfg.L1Bytes = 1 << 10      // 16 lines: 2 sets of 8 ways
		cfg.DirEntriesPerBank = 32
		cfg.CheckInvariants = true
		m := MustNew(&cfg, 3, uint64(seed))
		m.SetPolicy(&homeByAddrPolicy{cfg: &cfg})
		retireOp := rng.Intn(ops)
		for i := 0; i < ops; i++ {
			core := rng.Intn(cfg.NumCores)
			va := amath.Addr(rng.Intn(blocks) * cfg.BlockBytes)
			op := "access"
			switch k := rng.Intn(32); {
			case i == retireOp:
				op = "retire"
				if _, err := m.RetireBank(core); err != nil {
					t.Errorf("seed %d op %d: RetireBank(%d): %v", seed, i, core, err)
					return false
				}
			case k < 2:
				// 1-8 blocks from va's block, clipped to its page, from one bank.
				op = "flush-bank"
				pa := m.AS.Translate(va)
				r := amath.NewRange(pa, uint64((1+rng.Intn(8))*cfg.BlockBytes)).Intersect(
					amath.NewRange(pa.AlignDown(cfg.PageBytes), uint64(cfg.PageBytes)))
				m.FlushBankRange(core, r)
			case k < 3:
				op = "flush-everywhere"
				m.FlushRangeEverywhere(amath.NewRange(m.AS.Translate(va), uint64(cfg.BlockBytes)))
			default:
				m.Access(core, va, rng.Intn(3) == 0)
			}
			if err := checkDirectory(m); err != nil {
				t.Errorf("seed %d op %d (%s): %v", seed, i, op, err)
				return false
			}
		}
		if v := m.Violations(); len(v) != 0 {
			t.Errorf("seed %d: coherence violation: %s", seed, v[0])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

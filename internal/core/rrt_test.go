package core

import (
	"testing"
	"testing/quick"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
)

func TestRRTLookupHitMiss(t *testing.T) {
	r := NewRRT(4)
	r.Insert(0, amath.NewRange(0x1000, 0x1000), arch.MaskOf(3))
	if mask, ok := r.Lookup(0, 0x1800); !ok || mask != arch.MaskOf(3) {
		t.Errorf("Lookup inside range = %v, %v", mask, ok)
	}
	if _, ok := r.Lookup(0, 0x2000); ok {
		t.Error("Lookup at exclusive end hit")
	}
	if _, ok := r.Lookup(0, 0xfff); ok {
		t.Error("Lookup before start hit")
	}
	if r.Lookups() != 3 || r.Hits() != 1 {
		t.Errorf("stats: %d lookups %d hits", r.Lookups(), r.Hits())
	}
}

func TestRRTNoReplacementWhenFull(t *testing.T) {
	r := NewRRT(2)
	if !r.Insert(0, amath.NewRange(0, 64), arch.MaskFromWord(1)) || !r.Insert(0, amath.NewRange(64, 64), arch.MaskFromWord(2)) {
		t.Fatal("inserts into empty table failed")
	}
	if r.Insert(0, amath.NewRange(128, 64), arch.MaskFromWord(4)) {
		t.Error("insert into full table succeeded")
	}
	if r.InsertFailures() != 1 {
		t.Errorf("failures = %d", r.InsertFailures())
	}
	// Existing entries survive (no eviction).
	if _, ok := r.Lookup(0, 0); !ok {
		t.Error("full-table insert evicted an entry")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRRTEmptyRangeInsertIsNoop(t *testing.T) {
	r := NewRRT(1)
	if !r.Insert(0, amath.Range{}, arch.MaskFromWord(1)) {
		t.Error("empty-range insert failed")
	}
	if r.Len() != 0 {
		t.Error("empty-range insert consumed an entry")
	}
}

func TestRRTRemoveOverlapping(t *testing.T) {
	r := NewRRT(8)
	r.Insert(0, amath.NewRange(0, 128), arch.MaskFromWord(1))
	r.Insert(0, amath.NewRange(256, 128), arch.MaskFromWord(2))
	r.Insert(0, amath.NewRange(512, 128), arch.MaskFromWord(4))
	if n := r.RemoveOverlapping(0, amath.NewRange(100, 300)); n != 2 {
		t.Errorf("removed %d entries, want 2", n)
	}
	if _, ok := r.Lookup(0, 600); !ok {
		t.Error("non-overlapping entry was removed")
	}
	if _, ok := r.Lookup(0, 0); ok {
		t.Error("overlapping entry survived")
	}
}

func TestRRTOccupancyStats(t *testing.T) {
	r := NewRRT(8)
	r.Insert(0, amath.NewRange(0, 64), arch.MaskFromWord(1))   // occ 1
	r.Insert(0, amath.NewRange(64, 64), arch.MaskFromWord(1))  // occ 2
	r.Insert(0, amath.NewRange(128, 64), arch.MaskFromWord(1)) // occ 3
	r.RemoveOverlapping(0, amath.NewRange(0, 192))             // occ 0
	if r.MaxOccupancy() != 3 {
		t.Errorf("max occupancy = %d, want 3", r.MaxOccupancy())
	}
	if got := r.AvgOccupancy(); got != 1.5 { // (1+2+3+0)/4
		t.Errorf("avg occupancy = %v, want 1.5", got)
	}
}

func TestRRTMatchesNaiveModel(t *testing.T) {
	// Property: the RRT agrees with a naive ordered list of entries under
	// arbitrary insert/remove/lookup/resize/bank-retirement sequences over
	// two ASIDs. After every operation each ASID's EntriesOf must equal
	// the naive list in insertion order, which pins the order-preserving
	// compaction that SetCapacity's eviction set depends on.
	f := func(ops []uint64) bool {
		r := NewRRT(16)
		capacity := 16
		var naive []RRTEntry
		filter := func(drop func(RRTEntry) bool) {
			kept := naive[:0]
			for _, e := range naive {
				if !drop(e) {
					kept = append(kept, e)
				}
			}
			naive = kept
		}
		for i, o := range ops {
			kind := uint8(o)
			start := uint16(o >> 8)
			size := uint16(o >> 24)
			asid := int(o>>40) & 1
			rng := amath.NewRange(amath.Addr(start%512)*64, (uint64(size)%64+1)*64)
			switch kind % 4 {
			case 0, 1: // insert
				mask := arch.MaskOf(i % 16)
				ok := r.Insert(asid, rng, mask)
				if ok != (len(naive) < capacity) {
					return false
				}
				if ok {
					naive = append(naive, RRTEntry{Range: rng, Mask: mask, ASID: asid})
				}
			case 2: // remove
				n := len(naive)
				filter(func(e RRTEntry) bool { return e.ASID == asid && e.Range.Overlaps(rng) })
				if r.RemoveOverlapping(asid, rng) != n-len(naive) {
					return false
				}
			default: // lookup, or a resize / bank retirement
				switch (o >> 48) % 4 {
				case 0:
					capacity = int(o>>50) % 20
					evicted := r.SetCapacity(capacity)
					if len(naive) > capacity {
						if len(evicted) != len(naive)-capacity {
							return false
						}
						naive = naive[:capacity]
					} else if len(evicted) != 0 {
						return false
					}
				case 1:
					bank := int(o>>50) % 16
					n := len(naive)
					filter(func(e RRTEntry) bool { return e.Mask.Has(bank) })
					if r.RemoveWithBank(bank) != n-len(naive) {
						return false
					}
				default:
					mask, ok := r.Lookup(asid, rng.Start)
					var wantMask arch.Mask
					want := false
					for _, e := range naive {
						if e.ASID == asid && e.Range.Contains(rng.Start) {
							wantMask, want = e.Mask, true
							break
						}
					}
					if ok != want || (ok && mask != wantMask) {
						return false
					}
				}
			}
			for a := 0; a < 2; a++ {
				got := r.EntriesOf(a)
				k := 0
				for _, e := range naive {
					if e.ASID != a {
						continue
					}
					if k >= len(got) || got[k] != e {
						return false
					}
					k++
				}
				if k != len(got) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRRTRemoveWithBank(t *testing.T) {
	r := NewRRT(8)
	r.Insert(0, amath.NewRange(0, 128), arch.MaskOf(3))
	r.Insert(1, amath.NewRange(256, 128), arch.MaskOf(3).Set(5)) // other ASID, still names bank 3
	r.Insert(0, amath.NewRange(512, 128), arch.MaskOf(5))
	if n := r.RemoveWithBank(3); n != 2 {
		t.Errorf("removed %d entries naming bank 3, want 2 (ASID-blind)", n)
	}
	if _, ok := r.Lookup(0, 512); !ok {
		t.Error("entry not naming the bank was removed")
	}
	if _, ok := r.Lookup(0, 0); ok {
		t.Error("entry naming the retired bank survived")
	}
	if n := r.RemoveWithBank(3); n != 0 {
		t.Errorf("second pass removed %d", n)
	}
}

func TestRRTSetCapacity(t *testing.T) {
	r := NewRRT(4)
	for i := 0; i < 4; i++ {
		r.Insert(0, amath.NewRange(amath.Addr(i)*64, 64), arch.MaskOf(i))
	}
	evicted := r.SetCapacity(2)
	if len(evicted) != 2 {
		t.Fatalf("evicted %d entries, want 2", len(evicted))
	}
	// Insertion order is preserved: the newest entries fall out.
	if evicted[0].Range.Start != 128 || evicted[1].Range.Start != 192 {
		t.Errorf("evicted %v, want the two newest entries", evicted)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d after shrink", r.Len())
	}
	if r.Insert(0, amath.NewRange(1<<20, 64), arch.MaskFromWord(1)) {
		t.Error("insert into a shrunk-full table succeeded")
	}
	// Disabling entirely: capacity 0 evicts everything and rejects all
	// inserts, forcing the untracked fallback path.
	if got := r.SetCapacity(0); len(got) != 2 {
		t.Errorf("disable evicted %d, want 2", len(got))
	}
	if r.Insert(0, amath.NewRange(2<<20, 64), arch.MaskFromWord(1)) {
		t.Error("insert into a disabled table succeeded")
	}
	if got := r.SetCapacity(-3); len(got) != 0 || r.Len() != 0 {
		t.Error("negative capacity not clamped to 0")
	}
}

func TestFlushRegister(t *testing.T) {
	var f FlushRegister
	if !f.Poll() {
		t.Error("empty register should poll complete")
	}
	f.Begin(3)
	if f.Poll() {
		t.Error("pending flush polled complete")
	}
	f.Complete(3)
	if !f.Poll() {
		t.Error("completed flush still pending")
	}
	if f.Polls() != 3 {
		t.Errorf("polls = %d, want 3", f.Polls())
	}
}

func TestRTCacheDirectoryUseDesc(t *testing.T) {
	d := NewRTCacheDirectory()
	dep := depOn(t, 0x1000, 4096)
	e := d.Entry(dep)
	if e.UseDesc != 0 {
		t.Error("fresh entry has nonzero UseDesc")
	}
	e.UseDesc++
	if d.Entry(dep) != e {
		t.Error("Entry not stable for the same range")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestClassifyPrecedence(t *testing.T) {
	d := NewRTCacheDirectory()
	mk := func(start amath.Addr, in, out bool, uses, bypasses uint64) {
		e := d.Entry(depOn(t, start, 10*64))
		e.everIn, e.everOut = in, out
		e.useCount, e.bypassCount = uses, bypasses
	}
	mk(0, true, false, 4, 1)     // In (minority bypass)
	mk(1<<20, false, true, 2, 1) // Out (tie breaks toward usage class)
	mk(2<<20, true, true, 4, 2)  // Both (tie)
	mk(3<<20, true, true, 3, 2)  // NotReused: majority of uses bypassed
	c := d.Classify(64)
	if c.In != 10 || c.Out != 10 || c.Both != 10 || c.NotReused != 10 {
		t.Errorf("classification = %+v", c)
	}
	if c.DepBlocks() != 40 {
		t.Errorf("DepBlocks = %d", c.DepBlocks())
	}
}

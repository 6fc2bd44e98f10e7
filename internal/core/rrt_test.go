package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/sim"
)

func TestRRTLookupHitMiss(t *testing.T) {
	r := NewRRT(4)
	r.Insert(0, amath.NewRange(0x1000, 0x1000), arch.MaskOf(3))
	if mask, ok := r.Lookup(0, 0x1800); !ok || mask != arch.MaskOf(3) {
		t.Errorf("Lookup inside range = %v, %v", mask, ok)
	}
	if mask, ok := r.Lookup(0, 0x1000); !ok || mask != arch.MaskOf(3) {
		t.Errorf("Lookup at start = %v, %v", mask, ok)
	}
	for _, pa := range []amath.Addr{0x2000, 0xfff} { // exclusive end, before start
		if mask, ok := r.Lookup(0, pa); ok || mask != (arch.Mask{}) {
			t.Errorf("Lookup(%#x) outside the range = %v, %v; want a miss with an empty mask", uint64(pa), mask, ok)
		}
	}
	if _, ok := r.Lookup(1, 0x1800); ok {
		t.Error("Lookup hit another process's entry")
	}
}

func TestRRTNoReplacementWhenFull(t *testing.T) {
	r := NewRRT(2)
	if !r.Insert(0, amath.NewRange(0, 64), arch.MaskFromWord(1)) || !r.Insert(0, amath.NewRange(64, 64), arch.MaskFromWord(2)) {
		t.Fatal("inserts into empty table failed")
	}
	for i := 0; i < 2; i++ { // every insert into a full table fails
		if r.Insert(0, amath.NewRange(128, 64), arch.MaskFromWord(4)) {
			t.Errorf("insert %d into full table succeeded", i)
		}
	}
	// Existing entries survive (no eviction) and the rejected range
	// stays untracked.
	for pa, want := range map[amath.Addr]arch.Mask{0: arch.MaskFromWord(1), 64: arch.MaskFromWord(2)} {
		if mask, ok := r.Lookup(0, pa); !ok || mask != want {
			t.Errorf("Lookup(%d) after full-table inserts = %v, %v; want %v", pa, mask, ok, want)
		}
	}
	if _, ok := r.Lookup(0, 128); ok {
		t.Error("rejected range is tracked")
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

// rrtAgreesWithNaive applies ops to an RRT of the given capacity and to a
// naive ordered list of entries — insert, remove, lookup, resize and bank
// retirement over two ASIDs — and returns an error at the first
// disagreement. After every operation each ASID's EntriesOf must equal
// the naive list in insertion order, which pins the order-preserving
// compaction that SetCapacity's eviction set depends on. In nearFull
// mode inserts dominate, removes and ranges are small and resizes only
// trim the newest few entries, so the table runs close to capacity as it
// does on fine-grained task graphs; otherwise the table churns, and
// resizes range over [0, 20). It also returns the mean occupancy over
// the operations.
func rrtAgreesWithNaive(capacity int, nearFull bool, ops []uint64) (float64, error) {
	r, full := NewRRT(capacity), capacity
	var naive []RRTEntry
	occ := 0
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
		op := kind % 4
		if nearFull {
			rng = amath.NewRange(amath.Addr(start%4096)*64, (uint64(size)%4+1)*64)
			op = []uint8{0, 0, 0, 0, 2, 3, 3, 3}[kind%8]
		}
		switch op {
		case 0, 1: // insert
			mask := arch.MaskOf(i % 16)
			ok := r.Insert(asid, rng, mask)
			if ok != (len(naive) < capacity) {
				return 0, fmt.Errorf("op %d: Insert = %v with %d of %d entries", i, ok, len(naive), capacity)
			}
			if ok {
				naive = append(naive, RRTEntry{Range: rng, Mask: mask, ASID: asid})
			}
		case 2: // remove
			n := len(naive)
			filter(func(e RRTEntry) bool { return e.ASID == asid && e.Range.Overlaps(rng) })
			if got := r.RemoveOverlapping(asid, rng); got != n-len(naive) {
				return 0, fmt.Errorf("op %d: RemoveOverlapping(%d, %v) = %d, want %d", i, asid, rng, got, n-len(naive))
			}
		default: // lookup, or a resize / bank retirement
			switch sel := (o >> 48) % 4; {
			case sel == 0 && (!nearFull || kind%64 == 7):
				capacity = int(o>>50) % 20
				if nearFull {
					capacity = len(naive) - int(o>>50)%4
					if capacity < 0 {
						capacity = 0
					}
				}
				evicted := r.SetCapacity(capacity)
				want := 0
				if len(naive) > capacity {
					want = len(naive) - capacity
					for k, e := range evicted {
						if k < want && e != naive[capacity+k] {
							return 0, fmt.Errorf("op %d: SetCapacity evicted %v at %d, want %v", i, e, k, naive[capacity+k])
						}
					}
					naive = naive[:capacity]
				}
				if len(evicted) != want {
					return 0, fmt.Errorf("op %d: SetCapacity(%d) evicted %d entries, want %d", i, capacity, len(evicted), want)
				}
				if nearFull { // a transient shrink: restore the full table
					capacity = full
					r.SetCapacity(capacity)
				}
			case sel == 1 && (!nearFull || kind%64 == 15):
				bank := int(o>>50) % 16
				n := len(naive)
				filter(func(e RRTEntry) bool { return e.Mask.Has(bank) })
				if got := r.RemoveWithBank(bank); got != n-len(naive) {
					return 0, fmt.Errorf("op %d: RemoveWithBank(%d) = %d, want %d", i, bank, got, n-len(naive))
				}
			default:
				pa := rng.Start + amath.Addr(o>>58)
				mask, ok := r.Lookup(asid, pa)
				var wantMask arch.Mask
				want := false
				for _, e := range naive {
					if e.ASID == asid && e.Range.Contains(pa) {
						wantMask, want = e.Mask, true
						break
					}
				}
				if ok != want || mask != wantMask {
					return 0, fmt.Errorf("op %d: Lookup(%d, %#x) = %v, %v; want %v, %v", i, asid, uint64(pa), mask, ok, wantMask, want)
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
					return 0, fmt.Errorf("op %d: ASID %d entries %v diverge from the naive list %v", i, a, got, naive)
				}
				k++
			}
			if k != len(got) {
				return 0, fmt.Errorf("op %d: ASID %d has %d entries, naive list %d", i, a, len(got), k)
			}
		}
		occ += len(naive)
	}
	return float64(occ) / float64(max(len(ops), 1)), nil
}

func TestRRTMatchesNaiveModel(t *testing.T) {
	f := func(ops []uint64) bool {
		_, err := rrtAgreesWithNaive(16, false, ops)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// The production shape: 64 entries kept near full over long streams.
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		ops := make([]uint64, 5000)
		for i := range ops {
			ops[i] = rng.Uint64()
		}
		occ, err := rrtAgreesWithNaive(64, true, ops)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if occ < 56 {
			t.Errorf("seed %d: average occupancy %.1f of 64; the near-full stream should keep it above 56", seed, occ)
		}
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

// fullRRT returns a 64-entry RRT holding 60 entries of 2 KB over two
// ASIDs, the occupancy fine-grained task graphs run at, and the four
// 4 KB-aligned addresses below 256 KB that no entry covers. Entries are
// inserted in scrambled address order, as task dependencies are, so a
// scan cannot predict which entries lie below a query.
func fullRRT() (*RRT, []amath.Addr) {
	r := NewRRT(64)
	for i := 0; i < 60; i++ {
		r.Insert(i%2, amath.NewRange(amath.Addr(i*37%64)<<12, 2048), arch.MaskOf(i%16))
	}
	var holes []amath.Addr
	for i := 60; i < 64; i++ {
		holes = append(holes, amath.Addr(i*37%64)<<12)
	}
	return r, holes
}

// TestRRTAllocFree pins the hot RRT operations to zero allocations: the
// arrays are preallocated at capacity, and removal compacts in place.
func TestRRTAllocFree(t *testing.T) {
	r, holes := fullRRT()
	miss := holes[0]
	rng := amath.NewRange(miss, 2048)
	for name, op := range map[string]func(){
		"Lookup hit":  func() { r.Lookup(0, 0) },
		"Lookup miss": func() { r.Lookup(0, miss) },
		"Insert and RemoveOverlapping": func() {
			r.Insert(0, rng, arch.MaskOf(1))
			r.RemoveOverlapping(0, rng)
		},
		"RemoveOverlapping miss": func() { r.RemoveOverlapping(1, rng) },
		"Insert into a full table": func() {
			for r.Insert(0, rng, arch.MaskOf(1)) {
			}
			r.RemoveOverlapping(0, rng)
		},
	} {
		if n := testing.AllocsPerRun(1000, op); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}

// BenchmarkRRT times the two scans every fine-grained task pays on a
// 60-of-64 table: a lookup that matches nothing (the untracked-access
// fallback) and a remove that matches nothing (tdnuca_invalidate on a
// core that never registered the range, and the invalidation before
// every register). Queries cycle over the table's four holes.
func BenchmarkRRT(b *testing.B) {
	r, holes := fullRRT()
	b.Run("lookup-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Lookup(i&1, holes[i&3])
		}
	})
	b.Run("remove-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.RemoveOverlapping(i&1, amath.NewRange(holes[i&3], 2048))
		}
	})
}

package vm

import (
	"testing"
	"testing/quick"

	"tdnuca/internal/amath"
	"tdnuca/internal/sim"
)

func TestFirstTouchStable(t *testing.T) {
	as := NewAddressSpace(4096, 0, 1)
	p1 := as.PhysPage(100)
	p2 := as.PhysPage(100)
	if p1 != p2 {
		t.Errorf("re-touch changed mapping: %d then %d", p1, p2)
	}
	if _, ok := as.Lookup(100); !ok {
		t.Error("Lookup missed a mapped page")
	}
	if _, ok := as.Lookup(101); ok {
		t.Error("Lookup found an unmapped page")
	}
}

func TestAllocatorNeverDoubleMaps(t *testing.T) {
	f := func(pages []uint16) bool {
		as := NewAddressSpace(4096, 8, 99)
		phys := make(map[uint64]uint64) // phys -> virt
		for _, vp := range pages {
			p := as.PhysPage(uint64(vp))
			if owner, ok := phys[p]; ok && owner != uint64(vp) {
				return false
			}
			phys[p] = uint64(vp)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContiguousAllocationWithoutFragmentation(t *testing.T) {
	as := NewAddressSpace(4096, 0, 1)
	prev := as.PhysPage(0)
	for vp := uint64(1); vp < 100; vp++ {
		p := as.PhysPage(vp)
		if p != prev+1 {
			t.Fatalf("fragEvery=0 produced discontiguity at vp %d: %d after %d", vp, p, prev)
		}
		prev = p
	}
}

func TestFragmentationProducesDiscontinuities(t *testing.T) {
	as := NewAddressSpace(4096, 8, 1)
	breaks := 0
	prev := as.PhysPage(0)
	for vp := uint64(1); vp < 1000; vp++ {
		p := as.PhysPage(vp)
		if p != prev+1 {
			breaks++
		}
		prev = p
	}
	if breaks == 0 {
		t.Error("fragEvery=8 produced perfectly contiguous physical memory")
	}
	if breaks > 400 {
		t.Errorf("fragmentation too aggressive: %d breaks in 1000 pages", breaks)
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	as := NewAddressSpace(4096, 0, 1)
	va := amath.Addr(5*4096 + 123)
	pa := as.Translate(va)
	if uint64(pa)%4096 != 123 {
		t.Errorf("Translate lost page offset: %#x", uint64(pa))
	}
	if as.Translate(va) != pa {
		t.Error("Translate not stable")
	}
}

func TestPhysPageZeroReserved(t *testing.T) {
	as := NewAddressSpace(4096, 0, 1)
	if p := as.PhysPage(0); p == 0 {
		t.Error("allocator handed out physical page 0")
	}
}

func TestTouchFaultsAllPages(t *testing.T) {
	as := NewAddressSpace(4096, 0, 1)
	as.Touch(amath.NewRange(100, 3*4096))
	if as.AllocatedPages() != 4 { // range [100, 12388) spans pages 0..3
		t.Errorf("Touch allocated %d pages, want 4", as.AllocatedPages())
	}
}

func TestTLBHitMissLRU(t *testing.T) {
	tlb := NewTLB(2)
	if tlb.Access(1) {
		t.Error("cold access hit")
	}
	if !tlb.Access(1) {
		t.Error("warm access missed")
	}
	tlb.Access(2) // miss, fills
	tlb.Access(1) // hit; now 2 is LRU
	tlb.Access(3) // miss, evicts 2
	if tlb.Access(2) {
		t.Error("evicted entry hit")
	}
	if tlb.Hits() != 2 {
		t.Errorf("hits = %d, want 2", tlb.Hits())
	}
	if tlb.Misses() != 4 {
		t.Errorf("misses = %d, want 4", tlb.Misses())
	}
}

func TestTLBNeverExceedsCapacity(t *testing.T) {
	f := func(pages []uint8) bool {
		tlb := NewTLB(8)
		for _, p := range pages {
			tlb.Access(uint64(p))
			if tlb.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Access(7)
	if !tlb.Invalidate(7) {
		t.Error("Invalidate missed a resident page")
	}
	if tlb.Invalidate(7) {
		t.Error("Invalidate found an absent page")
	}
	if tlb.Access(7) {
		t.Error("access after invalidate hit")
	}
}

func TestTLBHitRatio(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.HitRatio() != 1 {
		t.Error("empty TLB hit ratio should be 1")
	}
	tlb.Access(1)
	tlb.Access(1)
	if got := tlb.HitRatio(); got != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", got)
	}
}

func TestTranslateRangeContiguous(t *testing.T) {
	as := NewAddressSpace(4096, 0, 1)
	tlb := NewTLB(64)
	r := amath.NewRange(0, 4*4096)
	tr := TranslateRange(as, tlb, r, nil)
	if len(tr.Phys) != 1 {
		t.Fatalf("contiguous memory translated to %d ranges: %v", len(tr.Phys), tr.Phys)
	}
	if tr.Phys[0].Size != r.Size {
		t.Errorf("translated size %d, want %d", tr.Phys[0].Size, r.Size)
	}
	if tr.TLBAccesses != 4 {
		t.Errorf("TLB accesses = %d, want 4 (one per page)", tr.TLBAccesses)
	}
}

func TestTranslateRangeFragmented(t *testing.T) {
	as := NewAddressSpace(4096, 4, 3)
	tlb := NewTLB(64)
	r := amath.NewRange(0, 64*4096)
	tr := TranslateRange(as, tlb, r, nil)
	if len(tr.Phys) < 2 {
		t.Fatalf("fragmented memory collapsed to %d range(s)", len(tr.Phys))
	}
	var total uint64
	for i, pr := range tr.Phys {
		total += pr.Size
		if i > 0 && tr.Phys[i-1].End() == pr.Start {
			t.Error("adjacent physical ranges were not collapsed")
		}
	}
	if total != r.Size {
		t.Errorf("translated total %d bytes, want %d", total, r.Size)
	}
}

func TestTranslateRangeReusesDst(t *testing.T) {
	as := NewAddressSpace(4096, 4, 3)
	r := amath.NewRange(0, 64*4096)
	want := TranslateRange(as, NewTLB(64), r, nil).Phys
	dst := make([]amath.Range, 1, len(want))
	dst[0] = amath.NewRange(1<<40, 64) // stale content must not survive
	got := TranslateRange(as, NewTLB(64), r, dst).Phys
	if len(got) != len(want) || &got[0] != &dst[0] {
		t.Fatalf("translation into dst: %d ranges (want %d), storage reused %v",
			len(got), len(want), len(got) > 0 && &got[0] == &dst[0])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("range %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTranslateRangePartialPages(t *testing.T) {
	as := NewAddressSpace(4096, 0, 1)
	tlb := NewTLB(64)
	// Unaligned range covering parts of 3 pages.
	r := amath.NewRange(1000, 8000)
	tr := TranslateRange(as, tlb, r, nil)
	var total uint64
	for _, pr := range tr.Phys {
		total += pr.Size
	}
	if total != r.Size {
		t.Errorf("partial-page translation size %d, want %d", total, r.Size)
	}
	if tr.TLBAccesses != 3 {
		t.Errorf("TLB accesses = %d, want 3", tr.TLBAccesses)
	}
	// First physical piece preserves the in-page offset.
	if uint64(tr.Phys[0].Start)%4096 != 1000 {
		t.Errorf("first piece offset = %d, want 1000", uint64(tr.Phys[0].Start)%4096)
	}
}

func TestTranslateRangeEmpty(t *testing.T) {
	as := NewAddressSpace(4096, 0, 1)
	tlb := NewTLB(64)
	tr := TranslateRange(as, tlb, amath.Range{}, nil)
	if len(tr.Phys) != 0 || tr.TLBAccesses != 0 {
		t.Error("empty range translation did work")
	}
}

func TestSharedAllocatorIsolatesSpaces(t *testing.T) {
	alloc := NewPhysAllocator(0, 1)
	a := NewAddressSpaceWith(4096, alloc)
	b := NewAddressSpaceWith(4096, alloc)
	seen := map[uint64]string{}
	for vp := uint64(0); vp < 100; vp++ {
		pa := a.PhysPage(vp)
		pb := b.PhysPage(vp)
		if pa == pb {
			t.Fatalf("virtual page %d mapped to frame %d in both spaces", vp, pa)
		}
		for frame, owner := range map[uint64]string{pa: "a", pb: "b"} {
			if prev, dup := seen[frame]; dup && prev != owner {
				t.Fatalf("frame %d handed to both spaces", frame)
			}
			seen[frame] = owner
		}
	}
	if alloc.Allocated() != 200 {
		t.Errorf("allocator handed out %d frames, want 200", alloc.Allocated())
	}
	if a.AllocatedPages() != 100 || b.AllocatedPages() != 100 {
		t.Errorf("per-space counts = %d/%d", a.AllocatedPages(), b.AllocatedPages())
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8)
	for p := uint64(0); p < 5; p++ {
		tlb.Access(p)
	}
	if tlb.Len() != 5 {
		t.Fatalf("len = %d", tlb.Len())
	}
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Error("Flush left entries resident")
	}
	if tlb.Access(0) {
		t.Error("post-flush access hit")
	}
	// Stats survive the flush (they are cumulative).
	if tlb.Misses() != 6 {
		t.Errorf("misses = %d, want 6", tlb.Misses())
	}
}

func TestTranslateRangeSizeProperty(t *testing.T) {
	f := func(start uint16, size uint16, frag uint8) bool {
		as := NewAddressSpace(4096, int(frag%16), uint64(frag))
		tlb := NewTLB(64)
		r := amath.NewRange(amath.Addr(start)*64, uint64(size)*64)
		tr := TranslateRange(as, tlb, r, nil)
		var total uint64
		for _, pr := range tr.Phys {
			total += pr.Size
		}
		return total == r.Size && tr.TLBAccesses == r.NumPages(4096)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refTLB is a deliberately naive map-based true-LRU reference model. The
// production TLB keeps its resident set in a flat slice; this test pins
// the two implementations to identical hit/miss behavior on a long
// pseudorandom access/invalidate/flush mix, which is exactly the
// equivalence argument that kept the golden digests unchanged when the
// map was replaced: stamps are unique, so the min-stamp victim is the
// same no matter how the resident set is stored or scanned.
type refTLB struct {
	capacity int
	entries  map[uint64]int
	stamp    int
}

func (r *refTLB) access(vp uint64) bool {
	r.stamp++
	if _, ok := r.entries[vp]; ok {
		r.entries[vp] = r.stamp
		return true
	}
	if len(r.entries) >= r.capacity {
		victim, oldest := uint64(0), r.stamp+1
		for p, s := range r.entries {
			if s < oldest {
				victim, oldest = p, s
			}
		}
		delete(r.entries, victim)
	}
	r.entries[vp] = r.stamp
	return false
}

func (r *refTLB) invalidate(vp uint64) bool {
	if _, ok := r.entries[vp]; ok {
		delete(r.entries, vp)
		return true
	}
	return false
}

func TestTLBMatchesReferenceLRU(t *testing.T) {
	tlb := NewTLB(16)
	ref := &refTLB{capacity: 16, entries: make(map[uint64]int)}
	rng := sim.NewRNG(7)
	for i := 0; i < 200000; i++ {
		switch op := rng.Intn(100); {
		case op < 90:
			vp := uint64(rng.Intn(40)) // working set 2.5x capacity
			if got, want := tlb.Access(vp), ref.access(vp); got != want {
				t.Fatalf("step %d: Access(%d) = %v, reference %v", i, vp, got, want)
			}
		case op < 98:
			vp := uint64(rng.Intn(40))
			if got, want := tlb.Invalidate(vp), ref.invalidate(vp); got != want {
				t.Fatalf("step %d: Invalidate(%d) = %v, reference %v", i, vp, got, want)
			}
		default:
			tlb.Flush()
			ref.entries = make(map[uint64]int)
		}
		if tlb.Len() != len(ref.entries) {
			t.Fatalf("step %d: Len = %d, reference %d", i, tlb.Len(), len(ref.entries))
		}
	}
}

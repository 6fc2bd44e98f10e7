package vm

import (
	"sort"
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

// refTLB is a deliberately naive map-based true-LRU reference model:
// last-use stamps in a map, the victim found by scanning for the oldest
// stamp. The production TLB keeps an open-addressed index and an
// intrusive recency list instead; the tests below pin the two to the
// same hits, misses and resident set — and the same recency order — on
// long access/invalidate/flush mixes.
type refTLB struct {
	capacity int
	entries  map[uint64]int
	stamp    int
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, entries: make(map[uint64]int)}
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

// byRecency returns the reference's resident pages, most recent first.
func (r *refTLB) byRecency() []uint64 {
	pages := make([]uint64, 0, len(r.entries))
	for p := range r.entries {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return r.entries[pages[i]] > r.entries[pages[j]] })
	return pages
}

// checkTLB verifies the TLB's internal structure against the reference:
// the list threads every slot once with consistent back links, its
// first Len() slots hold the resident pages most recent first in the
// reference's order, and every resident page — and nothing else — is
// reachable in the index from its home cell without crossing an empty
// cell.
func checkTLB(t *testing.T, step int, tlb *TLB, ref *refTLB) {
	t.Helper()
	want := ref.byRecency()
	if tlb.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, reference %d", step, tlb.Len(), len(want))
	}
	prev, n := uint16(noSlot), 0
	for s := tlb.head; s != noSlot; s = tlb.link[2*int(s)+1] {
		if n >= len(tlb.vp) {
			t.Fatalf("step %d: list longer than the %d slots", step, len(tlb.vp))
		}
		if tlb.link[2*int(s)] != prev {
			t.Fatalf("step %d: slot %d's prev link is %d, want %d", step, s, tlb.link[2*int(s)], prev)
		}
		if n < len(want) {
			if tlb.vp[s] != want[n] {
				t.Fatalf("step %d: recency position %d holds page %d, reference %d", step, n, tlb.vp[s], want[n])
			}
			if cell, ok := tlb.find(tlb.vp[s]); !ok || tlb.index[cell] != s+1 {
				t.Fatalf("step %d: resident page %d (slot %d) not reachable in the index", step, tlb.vp[s], s)
			}
		}
		prev, n = s, n+1
	}
	if n != len(tlb.vp) || tlb.tail != prev {
		t.Fatalf("step %d: list threads %d of %d slots, tail %d want %d", step, n, len(tlb.vp), tlb.tail, prev)
	}
	occupied := 0
	for _, v := range tlb.index {
		if v != 0 {
			occupied++
		}
	}
	if occupied != len(want) {
		t.Fatalf("step %d: %d index cells occupied for %d resident pages", step, occupied, len(want))
	}
}

// pageFamilies returns page pools that stress a TLB of the given size:
// dense page numbers, multiples of its index size, the top of the 52-bit
// page space (4 KB pages in a 64-bit address space), and pages whose
// home cells are the index's last and first, so their probe runs collide
// and wrap around its end.
func pageFamilies(entries int) map[string]func(i int) uint64 {
	probe := NewTLB(entries)
	cells := len(probe.index)
	var wrap []uint64
	for vp := uint64(0); len(wrap) < 4*entries; vp++ {
		if h := probe.home(vp); h >= cells-2 || h == 0 {
			wrap = append(wrap, vp)
		}
	}
	return map[string]func(i int) uint64{
		"dense":      func(i int) uint64 { return uint64(i) },
		"index-size": func(i int) uint64 { return uint64(i * cells) },
		"near-2^52":  func(i int) uint64 { return 1<<52 - 1 - uint64(i) },
		"wrapping":   func(i int) uint64 { return wrap[i%len(wrap)] },
	}
}

func TestTLBMatchesReferenceLRU(t *testing.T) {
	for _, entries := range []int{16, 64} {
		for name, page := range pageFamilies(entries) {
			// Working sets below capacity (every miss is cold or follows
			// an invalidate or flush) and 2.5x above it (eviction).
			for _, ws := range []int{entries * 3 / 4, entries * 5 / 2} {
				tlb, ref := NewTLB(entries), newRefTLB(entries)
				rng := sim.NewRNG(uint64(7 + entries + ws))
				for i := 0; i < 50000; i++ {
					vp := page(rng.Intn(ws))
					switch op := rng.Intn(1000); {
					case op < 900:
						if got, want := tlb.Access(vp), ref.access(vp); got != want {
							t.Fatalf("%d entries, %s, ws %d, step %d: Access(%d) = %v, reference %v", entries, name, ws, i, vp, got, want)
						}
					case op < 998:
						if got, want := tlb.Invalidate(vp), ref.invalidate(vp); got != want {
							t.Fatalf("%d entries, %s, ws %d, step %d: Invalidate(%d) = %v, reference %v", entries, name, ws, i, vp, got, want)
						}
					default:
						tlb.Flush()
						ref.entries = make(map[uint64]int)
					}
					if i%61 == 0 {
						checkTLB(t, i, tlb, ref)
					}
				}
				checkTLB(t, -1, tlb, ref)
			}
		}
	}
}

// FuzzTLB drives a TLB and the reference with an op stream decoded from
// the input: byte 0 picks the size (1..80 entries, 64 included), byte 1
// the page family, and each later pair of bytes one operation and its
// page. Every operation's result and the full structure must agree.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{63, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 3, 0, 1, 0, 2, 0, 1, 200, 1, 255, 0, 0, 1})
	f.Add([]byte{15, 1, 9, 9, 9, 10, 9, 11, 210, 10, 9, 12, 9, 13})
	f.Add([]byte{63, 2, 1, 100, 2, 101, 3, 102, 240, 101, 4, 103})
	f.Add([]byte{1, 3, 5, 0, 6, 1, 7, 2, 220, 1, 8, 0, 255, 0, 9, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		entries := 1 + int(ops[0])%80
		families := pageFamilies(entries)
		names := make([]string, 0, len(families))
		for name := range families {
			names = append(names, name)
		}
		sort.Strings(names)
		page := families[names[int(ops[1])%len(names)]]
		tlb, ref := NewTLB(entries), newRefTLB(entries)
		for i := 2; i+1 < len(ops); i += 2 {
			vp := page(int(ops[i+1]))
			switch op := ops[i]; {
			case op < 200:
				if got, want := tlb.Access(vp), ref.access(vp); got != want {
					t.Fatalf("op %d: Access(%d) = %v, reference %v", i/2, vp, got, want)
				}
			case op < 250:
				if got, want := tlb.Invalidate(vp), ref.invalidate(vp); got != want {
					t.Fatalf("op %d: Invalidate(%d) = %v, reference %v", i/2, vp, got, want)
				}
			default:
				tlb.Flush()
				ref.entries = make(map[uint64]int)
			}
			checkTLB(t, i/2, tlb, ref)
		}
	})
}

// TestTLBAllocFree pins the TLB's operations to zero allocations: the
// miss path evicts in place, and invalidation and flush only rewrite the
// preallocated slots, links and index.
func TestTLBAllocFree(t *testing.T) {
	tlb := NewTLB(64)
	vp := uint64(0)
	for name, op := range map[string]func(){
		"Access hit":  func() { tlb.Access(1) },
		"Access miss": func() { vp++; tlb.Access(vp) },
		"Invalidate":  func() { tlb.Access(vp); tlb.Invalidate(vp) },
		"Flush":       func() { tlb.Access(vp); tlb.Flush() },
	} {
		if n := testing.AllocsPerRun(1000, op); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}

// BenchmarkTLBAccess times one Access of a 64-entry TLB: a hit on the
// most recent page, a hit on another resident page, and a miss that
// evicts the least recently used page.
func BenchmarkTLBAccess(b *testing.B) {
	const entries = 64
	rng := sim.NewRNG(1)
	resident := make([]uint64, 1024)
	for i := range resident {
		resident[i] = uint64(rng.Intn(entries))
	}
	for _, bc := range []struct {
		name string
		page func(i int) uint64
	}{
		{"mru-hit", func(int) uint64 { return 7 }},
		{"resident-hit", func(i int) uint64 { return resident[i%len(resident)] }},
		{"miss-evict", func(i int) uint64 { return uint64(entries + i) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tlb := NewTLB(entries)
			for p := uint64(0); p < entries; p++ {
				tlb.Access(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tlb.Access(bc.page(i))
			}
		})
	}
}

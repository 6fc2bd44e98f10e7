// Package vm models the virtual memory subsystem the paper's full-system
// simulation provides: a per-process page table filled by a Linux-like
// first-touch physical page allocator, per-core fully-associative TLBs,
// and the iterative virtual-to-physical range translation that the
// TD-NUCA ISA instructions perform through the TLB (Fig. 5).
//
// The allocator is deliberately not perfectly contiguous: like a real
// buddy allocator under fragmentation, it breaks physical contiguity
// every so often. This matters for TD-NUCA because a virtually
// contiguous dependency that spans a physical discontinuity occupies
// multiple RRT entries (Sec. V-E observes this in Jacobi, MD5, Redblack).
package vm

import (
	"tdnuca/internal/amath"
	"tdnuca/internal/sim"
)

// PhysAllocator hands out physical pages. It is shared by every address
// space on the machine — two processes never receive the same frame.
type PhysAllocator struct {
	nextPhys uint64
	rng      *sim.RNG

	// fragEvery controls physical fragmentation: after every ~fragEvery
	// allocated pages the allocator skips 1-4 physical pages. Zero
	// disables fragmentation (fully contiguous allocation).
	fragEvery int
	sinceSkip int

	allocated uint64
}

// NewPhysAllocator creates a physical page allocator. seed drives the
// deterministic fragmentation jitter; fragEvery of 0 disables it.
func NewPhysAllocator(fragEvery int, seed uint64) *PhysAllocator {
	return &PhysAllocator{
		nextPhys:  1, // keep physical page 0 unused so phys addr 0 is never valid data
		rng:       sim.NewRNG(seed),
		fragEvery: fragEvery,
	}
}

// Alloc returns the next free physical page number.
func (pa *PhysAllocator) Alloc() uint64 {
	p := pa.nextPhys
	pa.nextPhys++
	pa.allocated++
	pa.sinceSkip++
	if pa.fragEvery > 0 && pa.sinceSkip >= pa.fragEvery {
		// Fragment: skip 1-4 physical pages, with deterministic jitter on
		// both the skip length and the next run length.
		pa.nextPhys += uint64(1 + pa.rng.Intn(4))
		pa.sinceSkip = 0
		if jitter := pa.fragEvery / 2; jitter > 0 {
			pa.sinceSkip = -pa.rng.Intn(jitter)
		}
	}
	return p
}

// Allocated returns how many pages have been handed out.
func (pa *PhysAllocator) Allocated() uint64 { return pa.allocated }

// AddressSpace is a process address space: the page table plus the
// (possibly shared) physical page allocator that backs it on first touch.
type AddressSpace struct {
	pageBytes int
	table     map[uint64]uint64 // virtual page number -> physical page number
	alloc     *PhysAllocator
}

// NewAddressSpace creates an empty address space with its own private
// allocator. pageBytes must be a power of two. seed drives the
// deterministic fragmentation jitter. fragEvery of 0 disables
// fragmentation.
func NewAddressSpace(pageBytes int, fragEvery int, seed uint64) *AddressSpace {
	return NewAddressSpaceWith(pageBytes, NewPhysAllocator(fragEvery, seed))
}

// NewAddressSpaceWith creates an address space backed by a shared
// allocator — the multiprogrammed configuration, where several processes
// draw frames from the same physical memory.
func NewAddressSpaceWith(pageBytes int, alloc *PhysAllocator) *AddressSpace {
	return &AddressSpace{
		pageBytes: pageBytes,
		table:     make(map[uint64]uint64),
		alloc:     alloc,
	}
}

// PageBytes returns the page size of this address space.
func (as *AddressSpace) PageBytes() int { return as.pageBytes }

// AllocatedPages returns how many physical pages this address space has
// been handed (not the allocator-wide total).
func (as *AddressSpace) AllocatedPages() uint64 { return uint64(len(as.table)) }

// PhysPage returns the physical page backing the given virtual page,
// allocating one (first touch) if the page has never been accessed.
func (as *AddressSpace) PhysPage(virtPage uint64) uint64 {
	if p, ok := as.table[virtPage]; ok {
		return p
	}
	p := as.alloc.Alloc()
	as.table[virtPage] = p //tdnuca:allow(alloc) first-touch page fault: one insert per page ever touched, amortized over the 64 block accesses the page serves
	return p
}

// Lookup returns the physical page for a virtual page without allocating.
func (as *AddressSpace) Lookup(virtPage uint64) (uint64, bool) {
	p, ok := as.table[virtPage]
	return p, ok
}

// Translate maps a virtual address to its physical address, allocating
// the backing page on first touch.
func (as *AddressSpace) Translate(va amath.Addr) amath.Addr {
	off := uint64(va) % uint64(as.pageBytes)
	pp := as.PhysPage(uint64(va) / uint64(as.pageBytes))
	return amath.Addr(pp*uint64(as.pageBytes) + off)
}

// TransCache is a one-entry MRU translation memo: the last virtual page
// translated through it and the physical page backing it. Each simulated
// core holds one so that the dominant streaming pattern — consecutive
// block accesses walking a page — performs one page-table map lookup per
// page instead of one per block. Page mappings are immutable once
// established (first-touch allocation, never remapped), so a memo can
// only go stale by being used against a *different* address space; the
// holder must Invalidate it on an address-space switch.
type TransCache struct {
	vp, pp uint64
	valid  bool
}

// Invalidate empties the memo (an address-space switch on the core).
func (tc *TransCache) Invalidate() { tc.valid = false }

// TranslateMRU is the page-grain batch entry point of Translate: it maps
// a virtual address to its physical address through the memo, touching
// the page-table map (and allocating on first touch) only when the
// access leaves the memoized page. Results are identical to Translate.
//
//tdnuca:hotpath
func (as *AddressSpace) TranslateMRU(tc *TransCache, va amath.Addr) amath.Addr {
	pb := uint64(as.pageBytes)
	vp := uint64(va) / pb
	if !tc.valid || tc.vp != vp {
		tc.vp, tc.pp, tc.valid = vp, as.PhysPage(vp), true
	}
	return amath.Addr(tc.pp*pb + uint64(va)%pb)
}

// Touch pre-faults every page of a virtual range, modelling initialization
// code writing the data before the parallel phase.
func (as *AddressSpace) Touch(r amath.Range) {
	r.EachPage(as.pageBytes, func(page amath.Addr) {
		as.PhysPage(uint64(page) / uint64(as.pageBytes))
	})
}

// tlbEntry is one resident translation: the virtual page and its
// last-use stamp for true-LRU replacement.
type tlbEntry struct {
	vp    uint64
	stamp int
}

// TLB is a fully-associative translation lookaside buffer with true-LRU
// replacement, modelling the paper's 64-entry 1-cycle ITLB/DTLB. The
// resident set lives in a flat pre-allocated slice rather than a map:
// at 64 entries a linear scan beats hashing, every operation is
// allocation-free, and — because stamps are unique — the min-stamp
// victim scan is deterministic by construction, with no iteration-order
// tie-break to defend.
type TLB struct {
	entries []tlbEntry // fixed capacity; the first `used` slots are resident
	used    int
	stamp   int

	// MRU fast path: the slot of the most recently accessed page, so
	// repeated accesses to one page — 64 consecutive block accesses per
	// 4KB page in the streaming common case — skip the resident scan.
	mruIdx int
	mruOK  bool

	hits   uint64
	misses uint64
}

// NewTLB creates a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	return &TLB{entries: make([]tlbEntry, entries)}
}

// Access looks up a virtual page, returning whether it hit. On a miss the
// translation is filled, evicting the least recently used entry if full.
//
//tdnuca:hotpath
func (t *TLB) Access(virtPage uint64) bool {
	t.stamp++
	if t.mruOK && t.entries[t.mruIdx].vp == virtPage {
		t.entries[t.mruIdx].stamp = t.stamp
		t.hits++
		return true
	}
	for i := 0; i < t.used; i++ {
		if t.entries[i].vp == virtPage {
			t.entries[i].stamp = t.stamp
			t.mruIdx, t.mruOK = i, true
			t.hits++
			return true
		}
	}
	t.misses++
	idx := t.used
	if t.used < len(t.entries) {
		t.used++
	} else {
		// Evict the LRU entry. Stamps are unique, so the minimum is too:
		// victim selection cannot depend on scan order.
		idx = 0
		for i := 1; i < t.used; i++ {
			if t.entries[i].stamp < t.entries[idx].stamp {
				idx = i
			}
		}
	}
	t.entries[idx] = tlbEntry{virtPage, t.stamp}
	t.mruIdx, t.mruOK = idx, true
	return false
}

// Flush empties the TLB — the cost model for an address-space switch on
// a core (the simulated machine has untagged TLBs).
func (t *TLB) Flush() {
	t.used = 0
	t.mruOK = false
}

// Invalidate removes a virtual page from the TLB (used by R-NUCA page
// reclassification shootdowns). It reports whether the page was present.
func (t *TLB) Invalidate(virtPage uint64) bool {
	for i := 0; i < t.used; i++ {
		if t.entries[i].vp == virtPage {
			t.used--
			t.entries[i] = t.entries[t.used]
			t.mruOK = false
			return true
		}
	}
	return false
}

// Hits returns the number of TLB hits observed.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of TLB misses observed.
func (t *TLB) Misses() uint64 { return t.misses }

// HitRatio returns hits/(hits+misses), or 1 when no accesses occurred.
func (t *TLB) HitRatio() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 1
	}
	return float64(t.hits) / float64(total)
}

// Len returns the number of resident entries.
func (t *TLB) Len() int { return t.used }

// RangeTranslation is the result of iteratively translating a virtual
// range through the TLB: the collapsed physical ranges plus the number of
// TLB accesses and misses the iteration performed. TD-NUCA's
// tdnuca_register charges one TLB access per virtual page and registers
// one RRT entry per collapsed physical range (Fig. 5).
type RangeTranslation struct {
	Phys        []amath.Range
	TLBAccesses int
	TLBMisses   int
}

// TranslateRange walks the virtual range page by page through the TLB,
// translating each page and collapsing physically contiguous pages into
// maximal physical ranges. Partial first/last pages translate to partial
// physical ranges so that the total translated size equals r.Size.
// The ranges are appended to dst[:0], so a caller that passes the Phys of
// its previous translation back in reuses that slice's storage.
func TranslateRange(as *AddressSpace, tlb *TLB, r amath.Range, dst []amath.Range) RangeTranslation {
	out := RangeTranslation{Phys: dst[:0]}
	if r.IsEmpty() {
		return out
	}
	pb := uint64(as.pageBytes)
	var cur amath.Range
	r.EachPage(as.pageBytes, func(page amath.Addr) {
		vp := uint64(page) / pb
		out.TLBAccesses++
		if !tlb.Access(vp) {
			out.TLBMisses++
		}
		pp := as.PhysPage(vp)

		// Clip the page to the requested virtual range, then rebase the
		// clipped piece onto the physical page.
		vPiece := r.Intersect(amath.NewRange(page, pb))
		physStart := amath.Addr(pp*pb + uint64(vPiece.Start)%pb)
		piece := amath.NewRange(physStart, vPiece.Size)

		if !cur.IsEmpty() && cur.End() == piece.Start {
			cur.Size += piece.Size
		} else {
			if !cur.IsEmpty() {
				out.Phys = append(out.Phys, cur)
			}
			cur = piece
		}
	})
	if !cur.IsEmpty() {
		out.Phys = append(out.Phys, cur)
	}
	return out
}

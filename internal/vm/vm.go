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
	"fmt"

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
	pageBits uint              // log2 of the page size: page number = address >> pageBits
	table    map[uint64]uint64 // virtual page number -> physical page number
	alloc    *PhysAllocator
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
// draw frames from the same physical memory. pageBytes must be a power
// of two.
func NewAddressSpaceWith(pageBytes int, alloc *PhysAllocator) *AddressSpace {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("vm: page size %d is not a positive power of two", pageBytes))
	}
	return &AddressSpace{
		pageBits: amath.Log2(pageBytes),
		table:    make(map[uint64]uint64),
		alloc:    alloc,
	}
}

// PageBytes returns the page size of this address space.
func (as *AddressSpace) PageBytes() int { return 1 << as.pageBits }

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
	pb := uint64(as.PageBytes())
	pp := as.PhysPage(uint64(va) / pb)
	return amath.Addr(pp*pb + uint64(va)%pb)
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
	vp := uint64(va) >> as.pageBits
	if !tc.valid || tc.vp != vp {
		tc.vp, tc.pp, tc.valid = vp, as.PhysPage(vp), true
	}
	return amath.Addr(tc.pp<<as.pageBits | uint64(va)&(1<<as.pageBits-1))
}

// Touch pre-faults every page of a virtual range, modelling initialization
// code writing the data before the parallel phase.
func (as *AddressSpace) Touch(r amath.Range) {
	r.EachPage(as.PageBytes(), func(page amath.Addr) {
		as.PhysPage(uint64(page) >> as.pageBits)
	})
}

// MaxTLBEntries is the largest TLB NewTLB builds: the slot links and the
// page index are uint16, with one value reserved for "no slot".
const MaxTLBEntries = 1 << 15

// noSlot is the nil link of the TLB's slot list.
const noSlot = 1<<16 - 1

// fibMul is 2^64 divided by the golden ratio: multiplying a page number
// by it and keeping the top bits (Fibonacci hashing) spreads strided and
// contiguous page numbers alike over the index.
const fibMul = 0x9e3779b97f4a7c15

// TLB is a fully-associative translation lookaside buffer with true-LRU
// replacement, modelling the paper's 64-entry 1-cycle ITLB/DTLB. The
// hardware matches every entry in parallel; the model gets the same
// constant cost per operation from two small structures over a fixed set
// of slots, with no scan and no allocation:
//
//   - an open-addressed index (linear probing, at most half full) maps a
//     resident page to its slot+1, 0 marking an empty cell; deletion
//     shifts the rest of the probe run back instead of leaving
//     tombstones, so a lookup stops at the first empty cell;
//   - a doubly linked list threads every slot: the resident ones from
//     the most recently used (head) to the least, then the free ones. A hit moves its slot to the head; a miss takes the tail,
//     which is a free slot or, in a full TLB, the least recently used
//     page; an invalidated slot moves to the tail.
//
// Links and index are uint16, so 64 entries take 1 KiB: 512 bytes of
// pages, 256 of links and 256 of index.
type TLB struct {
	vp    []uint64 // vp[s]: the virtual page resident in slot s
	link  []uint16 // link[2s], link[2s+1]: slot s's prev (toward head) and next
	index []uint16 // hash cell -> resident slot+1; 0 = empty

	head, tail uint16 // first and last slot of the list
	used       uint16 // resident slots: the first used of the list
	shift      uint8  // 64 - log2(len(index)): home cell = vp*fibMul >> shift

	hits   uint64
	misses uint64
}

// NewTLB creates a TLB with the given number of entries, which must lie
// in [1, MaxTLBEntries] (arch.Config.Validate enforces the same bound).
func NewTLB(entries int) *TLB {
	if entries < 1 || entries > MaxTLBEntries {
		panic(fmt.Sprintf("vm: TLB entries %d outside [1, %d]", entries, MaxTLBEntries))
	}
	cells := 2 << amath.Log2(entries) // the least power of two >= 2*entries
	if cells < 2*entries {
		cells <<= 1
	}
	links := 2 * entries
	buf := make([]uint16, links+cells) // links and index in one allocation
	t := &TLB{
		vp:    make([]uint64, entries),
		link:  buf[:links:links],
		index: buf[links:],
		head:  noSlot,
		tail:  noSlot,
		shift: uint8(64 - amath.Log2(cells)),
	}
	for s := 0; s < entries; s++ {
		t.pushBack(uint16(s))
	}
	return t
}

// home returns the index cell a page's probe run starts at.
func (t *TLB) home(vp uint64) int { return int(vp * fibMul >> t.shift) }

// find returns the index cell holding vp and true, or the empty cell
// that ends vp's probe run and false.
func (t *TLB) find(vp uint64) (cell int, ok bool) {
	mask := len(t.index) - 1
	for i := t.home(vp); ; i = (i + 1) & mask {
		v := t.index[i]
		if v == 0 {
			return i, false
		}
		if t.vp[v-1] == vp {
			return i, true
		}
	}
}

// cellOf returns the index cell holding the resident slot s.
func (t *TLB) cellOf(s uint16) int {
	mask := len(t.index) - 1
	i := t.home(t.vp[s])
	for t.index[i] != s+1 {
		i = (i + 1) & mask
	}
	return i
}

// unindex empties index cell i by backward-shift deletion: each later
// entry of the probe run whose home does not lie cyclically in (i, j]
// moves back into the hole, so every resident page stays reachable from
// its home without crossing an empty cell.
func (t *TLB) unindex(i int) {
	mask := len(t.index) - 1
	t.index[i] = 0
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		h := t.home(t.vp[t.index[j]-1])
		if (j-h)&mask >= (j-i)&mask { // h is not in (i, j]
			t.index[i], t.index[j] = t.index[j], 0
			i = j
		}
	}
}

// unlink removes slot s from the recency list.
func (t *TLB) unlink(s uint16) {
	prev, next := t.link[2*int(s)], t.link[2*int(s)+1]
	if prev == noSlot {
		t.head = next
	} else {
		t.link[2*int(prev)+1] = next
	}
	if next == noSlot {
		t.tail = prev
	} else {
		t.link[2*int(next)] = prev
	}
}

// pushFront makes slot s the most recently used.
func (t *TLB) pushFront(s uint16) {
	t.link[2*int(s)], t.link[2*int(s)+1] = noSlot, t.head
	if t.head == noSlot {
		t.tail = s
	} else {
		t.link[2*int(t.head)] = s
	}
	t.head = s
}

// pushBack makes slot s the next one a miss takes.
func (t *TLB) pushBack(s uint16) {
	t.link[2*int(s)], t.link[2*int(s)+1] = t.tail, noSlot
	if t.tail == noSlot {
		t.head = s
	} else {
		t.link[2*int(t.tail)+1] = s
	}
	t.tail = s
}

// Access looks up a virtual page, returning whether it hit. On a miss the
// translation is filled, evicting the least recently used entry if full.
//
//tdnuca:hotpath
func (t *TLB) Access(virtPage uint64) bool {
	// MRU fast path: repeated accesses to one page — 64 consecutive
	// block accesses per 4KB page in the streaming common case — find it
	// at the head of the list.
	if t.used > 0 && t.vp[t.head] == virtPage {
		t.hits++
		return true
	}
	cell, ok := t.find(virtPage)
	if ok {
		s := t.index[cell] - 1
		t.unlink(s)
		t.pushFront(s)
		t.hits++
		return true
	}
	t.misses++
	// The new page takes the tail's slot and the empty cell its probe
	// run ended at. In a full TLB the tail holds the victim, whose cell
	// goes only after the new page's is filled, so the backward shift
	// sees the run as it now is.
	s := t.tail
	victim := -1
	if int(t.used) == len(t.vp) {
		victim = t.cellOf(s)
	} else {
		t.used++
	}
	t.vp[s] = virtPage
	t.index[cell] = s + 1
	if victim >= 0 {
		t.unindex(victim)
	}
	t.unlink(s)
	t.pushFront(s)
	return false
}

// Flush empties the TLB — the cost model for an address-space switch on
// a core (the simulated machine has untagged TLBs).
func (t *TLB) Flush() {
	clear(t.index)
	t.used = 0
}

// Invalidate removes a virtual page from the TLB (used by R-NUCA page
// reclassification shootdowns). It reports whether the page was present.
func (t *TLB) Invalidate(virtPage uint64) bool {
	cell, ok := t.find(virtPage)
	if !ok {
		return false
	}
	s := t.index[cell] - 1
	t.unindex(cell)
	t.unlink(s)
	t.pushBack(s)
	t.used--
	return true
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
func (t *TLB) Len() int { return int(t.used) }

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
	pb := uint64(as.PageBytes())
	var cur amath.Range
	r.EachPage(as.PageBytes(), func(page amath.Addr) {
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

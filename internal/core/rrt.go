// Package core implements TD-NUCA, the paper's contribution: the per-core
// Runtime Region Table (RRT), the three ISA instructions that manage it
// (tdnuca_register, tdnuca_invalidate, tdnuca_flush), the memory-mapped
// flush-completion register, the runtime-system extensions
// (RTCacheDirectory with use descriptors, the placement decision flowchart
// of Fig. 7) and the machine.Policy + taskrt.Hooks glue that drives the
// NUCA LLC from the task dataflow runtime.
package core

import (
	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
)

// RRTEntry is one Runtime Region Table entry: the start and end physical
// address of a memory region and the BankMask of the LLC banks the region
// is mapped to (Sec. III-B1). An all-zero mask means LLC bypass. ASID
// tags the entry with its owning process so multiprogrammed workloads can
// share the RRTs without save/restore at context switches (Sec. III-D).
type RRTEntry struct {
	Range amath.Range // physical
	Mask  arch.Mask
	ASID  int
}

// RRT is the per-core Runtime Region Table: a small TCAM-like structure
// performing range lookups on private-cache misses and writebacks. It has
// no replacement policy: when full, registrations fail and the affected
// ranges simply fall back to address interleaving (Sec. III-B2).
//
// The hardware matches every entry in parallel. The model keeps entry i
// as parallel arrays — bounds lo[i], hi[i] (end precomputed), asid[i]
// and mask[i] — so a match walks two dense 8-byte-per-entry address
// arrays and reads the ASID and the 32-byte mask only on a candidate.
// Entries stay in insertion order (SetCapacity and EntriesOf depend on
// it).
type RRT struct {
	capacity int
	lo, hi   []amath.Addr // entry i covers physical [lo[i], hi[i])
	asid     []int
	mask     []arch.Mask

	occSum     uint64 // integral of occupancy sampled at each mutation
	occSamples uint64
	maxOcc     int
}

// NewRRT creates an RRT with the given number of entries.
func NewRRT(capacity int) *RRT {
	return &RRT{
		capacity: capacity,
		lo:       make([]amath.Addr, 0, capacity),
		hi:       make([]amath.Addr, 0, capacity),
		asid:     make([]int, 0, capacity),
		mask:     make([]arch.Mask, 0, capacity),
	}
}

// Len returns the current number of entries.
func (r *RRT) Len() int { return len(r.lo) }

// Capacity returns the maximum number of entries.
func (r *RRT) Capacity() int { return r.capacity }

// entry returns entry i as an RRTEntry.
func (r *RRT) entry(i int) RRTEntry {
	return RRTEntry{
		Range: amath.Range{Start: r.lo[i], Size: uint64(r.hi[i] - r.lo[i])},
		Mask:  r.mask[i],
		ASID:  r.asid[i],
	}
}

// Lookup performs the range match for a physical address on behalf of
// the given process: it returns the BankMask of the first matching entry
// tagged with that ASID and whether any entry matched.
func (r *RRT) Lookup(asid int, pa amath.Addr) (arch.Mask, bool) {
	hi := r.hi[:len(r.lo)]
	for i, lo := range r.lo {
		if b2u(pa >= lo)&b2u(pa < hi[i]) != 0 && r.asid[i] == asid {
			return r.mask[i], true
		}
	}
	return arch.Mask{}, false
}

// b2u is 1 for true and 0 for false. The scans combine their two bound
// compares with it instead of &&: whether an entry lies below a query is
// a coin flip the branch predictor cannot learn, while "both bounds
// hold" is rare and well predicted.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Insert registers a physical range with its BankMask under the given
// ASID. It reports false when the table is full — the range stays
// untracked, which is safe because untracked blocks fall back to S-NUCA
// interleaving.
func (r *RRT) Insert(asid int, rng amath.Range, mask arch.Mask) bool {
	if rng.IsEmpty() {
		return true
	}
	if len(r.lo) >= r.capacity {
		return false
	}
	r.lo = append(r.lo, rng.Start)
	r.hi = append(r.hi, rng.End())
	r.asid = append(r.asid, asid)
	r.mask = append(r.mask, mask)
	r.sample()
	return true
}

// RemoveOverlapping de-registers every entry of the process whose range
// overlaps the given physical range (tdnuca_invalidate), returning how
// many entries were removed. A miss is a read-only scan; on a hit the
// runs of surviving entries move down in place, keeping insertion order.
func (r *RRT) RemoveOverlapping(asid int, rng amath.Range) int {
	if rng.IsEmpty() {
		return 0
	}
	start, end := rng.Start, rng.End()
	n := len(r.lo)
	hi := r.hi[:n]
	overlaps := func(i int) bool { return b2u(r.lo[i] < end)&b2u(start < hi[i]) != 0 && r.asid[i] == asid }
	first := 0
	for first < n && !overlaps(first) {
		first++
	}
	if first == n {
		return 0
	}
	kept := first
	for i := first + 1; i <= n; i++ {
		// Entries [i, j) survive; entry j, if any, overlaps.
		j := i
		for j < n && !overlaps(j) {
			j++
		}
		r.move(kept, i, j)
		kept += j - i
		i = j
	}
	r.truncate(kept)
	r.sample()
	return n - kept
}

// move copies entries [from, to) down to dst (dst <= from).
func (r *RRT) move(dst, from, to int) {
	if dst == from {
		return
	}
	copy(r.lo[dst:], r.lo[from:to])
	copy(r.hi[dst:], r.hi[from:to])
	copy(r.asid[dst:], r.asid[from:to])
	copy(r.mask[dst:], r.mask[from:to])
}

// truncate keeps the first n entries.
func (r *RRT) truncate(n int) {
	r.lo, r.hi, r.asid, r.mask = r.lo[:n], r.hi[:n], r.asid[:n], r.mask[:n]
}

// RemoveWithBank de-registers every entry whose BankMask names the given
// bank, regardless of ASID, returning how many entries were removed.
// Issued when an LLC bank is retired: any region still routed at the dead
// bank must fall back to address interleaving (the paper's RRT-miss
// fallback path). Bypass entries (empty mask) never match.
func (r *RRT) RemoveWithBank(bank int) int {
	kept := 0
	for i := range r.mask {
		if !r.mask[i].Has(bank) {
			r.move(kept, i, i+1)
			kept++
		}
	}
	removed := len(r.mask) - kept
	if removed > 0 {
		r.truncate(kept)
		r.sample()
	}
	return removed
}

// SetCapacity shrinks (or grows) the table's capacity mid-run, returning
// the entries evicted to fit: insertion order is kept and the newest
// entries beyond the new capacity are the ones evicted, so the eviction
// set is deterministic. The caller owns making the evicted regions safe
// to access untracked (flushing them to memory) before dropping them.
func (r *RRT) SetCapacity(newCap int) []RRTEntry {
	if newCap < 0 {
		newCap = 0
	}
	r.capacity = newCap
	if len(r.lo) <= newCap {
		return nil
	}
	evicted := make([]RRTEntry, 0, len(r.lo)-newCap)
	for i := newCap; i < len(r.lo); i++ {
		evicted = append(evicted, r.entry(i))
	}
	r.truncate(newCap)
	r.sample()
	return evicted
}

// EntriesOf returns copies of the entries tagged with the ASID, used by
// thread migration to move a process's mappings between cores.
func (r *RRT) EntriesOf(asid int) []RRTEntry {
	var out []RRTEntry
	for i, a := range r.asid {
		if a == asid {
			out = append(out, r.entry(i))
		}
	}
	return out
}

func (r *RRT) sample() {
	n := len(r.lo)
	r.occSum += uint64(n)
	r.occSamples++
	if n > r.maxOcc {
		r.maxOcc = n
	}
}

// AvgOccupancy returns the mean number of entries observed across all
// mutations (the Sec. V-E occupancy metric).
func (r *RRT) AvgOccupancy() float64 {
	if r.occSamples == 0 {
		return 0
	}
	return float64(r.occSum) / float64(r.occSamples)
}

// MaxOccupancy returns the peak number of entries ever resident.
func (r *RRT) MaxOccupancy() int { return r.maxOcc }

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
type RRT struct {
	capacity int
	entries  []RRTEntry

	lookups        uint64
	hits           uint64
	insertFailures uint64
	occSum         uint64 // integral of occupancy sampled at each mutation
	occSamples     uint64
	maxOcc         int
}

// NewRRT creates an RRT with the given number of entries.
func NewRRT(capacity int) *RRT {
	return &RRT{capacity: capacity, entries: make([]RRTEntry, 0, capacity)}
}

// Len returns the current number of entries.
func (r *RRT) Len() int { return len(r.entries) }

// Capacity returns the maximum number of entries.
func (r *RRT) Capacity() int { return r.capacity }

// Lookup performs the range match for a physical address on behalf of
// the given process: it returns the BankMask of the first matching entry
// tagged with that ASID and whether any entry matched.
func (r *RRT) Lookup(asid int, pa amath.Addr) (arch.Mask, bool) {
	r.lookups++
	for i := range r.entries {
		if r.entries[i].ASID == asid && r.entries[i].Range.Contains(pa) {
			r.hits++
			return r.entries[i].Mask, true
		}
	}
	return arch.Mask{}, false
}

// Insert registers a physical range with its BankMask under the given
// ASID. It reports false when the table is full — the range stays
// untracked, which is safe because untracked blocks fall back to S-NUCA
// interleaving.
func (r *RRT) Insert(asid int, rng amath.Range, mask arch.Mask) bool {
	if rng.IsEmpty() {
		return true
	}
	if len(r.entries) >= r.capacity {
		r.insertFailures++
		return false
	}
	r.entries = append(r.entries, RRTEntry{Range: rng, Mask: mask, ASID: asid})
	r.sample()
	return true
}

// RemoveOverlapping de-registers every entry of the process whose range
// overlaps the given physical range (tdnuca_invalidate), returning how
// many entries were removed. A miss is a read-only scan; on a hit the
// entries from the first match on are compacted in place, keeping
// insertion order (SetCapacity and EntriesOf depend on it).
func (r *RRT) RemoveOverlapping(asid int, rng amath.Range) int {
	first := 0
	for first < len(r.entries) && !r.entries[first].overlaps(asid, rng) {
		first++
	}
	if first == len(r.entries) {
		return 0
	}
	kept := first
	for i := first + 1; i < len(r.entries); i++ {
		if !r.entries[i].overlaps(asid, rng) {
			r.entries[kept] = r.entries[i]
			kept++
		}
	}
	removed := len(r.entries) - kept
	r.entries = r.entries[:kept]
	r.sample()
	return removed
}

// overlaps reports whether the entry belongs to the process and its range
// overlaps rng.
func (e *RRTEntry) overlaps(asid int, rng amath.Range) bool {
	return e.ASID == asid && e.Range.Overlaps(rng)
}

// RemoveWithBank de-registers every entry whose BankMask names the given
// bank, regardless of ASID, returning how many entries were removed.
// Issued when an LLC bank is retired: any region still routed at the dead
// bank must fall back to address interleaving (the paper's RRT-miss
// fallback path). Bypass entries (empty mask) never match.
func (r *RRT) RemoveWithBank(bank int) int {
	kept := r.entries[:0]
	removed := 0
	for _, e := range r.entries {
		if e.Mask.Has(bank) {
			removed++
		} else {
			kept = append(kept, e)
		}
	}
	r.entries = kept
	if removed > 0 {
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
	if len(r.entries) <= newCap {
		return nil
	}
	evicted := append([]RRTEntry(nil), r.entries[newCap:]...)
	r.entries = r.entries[:newCap]
	r.sample()
	return evicted
}

// EntriesOf returns copies of the entries tagged with the ASID, used by
// thread migration to move a process's mappings between cores.
func (r *RRT) EntriesOf(asid int) []RRTEntry {
	var out []RRTEntry
	for _, e := range r.entries {
		if e.ASID == asid {
			out = append(out, e)
		}
	}
	return out
}

func (r *RRT) sample() {
	n := len(r.entries)
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

// InsertFailures returns how many registrations were dropped because the
// table was full.
func (r *RRT) InsertFailures() uint64 { return r.insertFailures }

// Lookups returns the number of Lookup calls performed.
func (r *RRT) Lookups() uint64 { return r.lookups }

// Hits returns how many lookups matched an entry.
func (r *RRT) Hits() uint64 { return r.hits }

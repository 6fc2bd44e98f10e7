package taskrt

import (
	"sort"

	"tdnuca/internal/amath"
)

// depRecord tracks the dataflow history of one data range: the last task
// that wrote it and the readers since that write. New tasks derive their
// TDG edges from this record exactly as OmpSs does: read-after-write,
// write-after-write and write-after-read dependencies all serialize.
type depRecord struct {
	rng        amath.Range
	lastWriter *Task
	readers    []*Task
}

// depRegistry indexes depRecords by range. Lookups match any record whose
// range overlaps the queried range, so partially overlapping array
// sections serialize conservatively; the common case in the benchmarks is
// an exact range match, found by binary search on the start address.
type depRegistry struct {
	byKey   map[DepKey]*depRecord
	ordered []*depRecord // sorted by rng.Start for overlap queries
	maxSize uint64       // largest range size seen, bounds the overlap scan
}

func newDepRegistry() *depRegistry {
	return &depRegistry{byKey: make(map[DepKey]*depRecord)}
}

// record returns the record for an exact range, creating it if new.
func (r *depRegistry) record(rng amath.Range) *depRecord {
	key := DepKey{Start: rng.Start, Size: rng.Size}
	if rec, ok := r.byKey[key]; ok {
		return rec
	}
	rec := &depRecord{rng: rng}
	r.byKey[key] = rec
	i := sort.Search(len(r.ordered), func(i int) bool {
		return r.ordered[i].rng.Start > rng.Start ||
			(r.ordered[i].rng.Start == rng.Start && r.ordered[i].rng.Size >= rng.Size)
	})
	r.ordered = append(r.ordered, nil)
	copy(r.ordered[i+1:], r.ordered[i:])
	r.ordered[i] = rec
	if rng.Size > r.maxSize {
		r.maxSize = rng.Size
	}
	return rec
}

// span returns the index range [lo, hi) of ordered that holds every
// record overlapping rng; records inside it may still not overlap. Any
// overlapping record starts before rng.End() and ends after rng.Start;
// since record sizes are bounded by maxSize, it starts at or after
// rng.Start - maxSize.
func (r *depRegistry) span(rng amath.Range) (lo, hi int) {
	if rng.IsEmpty() {
		return 0, 0
	}
	lo, hi = 0, len(r.ordered)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint64(r.ordered[mid].rng.Start)+r.maxSize > uint64(rng.Start) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	hi = lo
	for hi < len(r.ordered) && r.ordered[hi].rng.Start < rng.End() {
		hi++
	}
	return lo, hi
}

// insertTask derives the TDG edges for a newly created task from the
// registry state and updates the records. It must be called in program
// order (the task-creation order of the single creator thread).
func (r *depRegistry) insertTask(t *Task) {
	var affRead, affWrite, affReader *Task
	firstReadSeen := false
	for _, d := range t.Deps {
		if d.Mode.Reads() && !firstReadSeen {
			firstReadSeen = true
			// Reader-affinity: when nobody ever wrote the data (pure
			// input), schedule near its most recent reader so repeated
			// scans of the same chunk share a cache. Only the first read
			// dependency is considered — broadcast data (read by every
			// task) must not glue the whole program to one core.
			if rec, ok := r.byKey[d.Key()]; ok && len(rec.readers) > 0 {
				affReader = rec.readers[len(rec.readers)-1]
			}
		}
		// Ensure an exact record exists so the dependency is tracked even
		// if only overlapped partially later.
		r.record(d.Range)
		// One search per dependency: neither loop below mutates ordered,
		// so both walk the same span.
		lo, hi := r.span(d.Range)
		for _, rec := range r.ordered[lo:hi] {
			if !rec.rng.Overlaps(d.Range) {
				continue
			}
			if rec.lastWriter != nil && rec.lastWriter != t {
				if d.Mode.Reads() && affRead == nil {
					affRead = rec.lastWriter
				}
				if d.Mode.Writes() && affWrite == nil {
					affWrite = rec.lastWriter
				}
			}
			if d.Mode&InOut != 0 && rec.lastWriter != nil && !rec.lastWriter.Done() {
				rec.lastWriter.addEdge(t) // RAW, or WAW for a write
			}
			if d.Mode.Writes() {
				for _, reader := range rec.readers {
					if reader != t && !reader.Done() {
						reader.addEdge(t) // WAR
					}
				}
			}
		}
		// Update records after edge derivation.
		for _, rec := range r.ordered[lo:hi] {
			if !rec.rng.Overlaps(d.Range) {
				continue
			}
			if d.Mode.Writes() {
				rec.lastWriter = t
				rec.readers = rec.readers[:0]
			} else if d.Mode.Reads() {
				rec.readers = append(rec.readers, t)
			}
		}
	}
	// Data-affinity: prefer the previous writer of the data this task
	// will write (mutating a range in place is where migration is most
	// expensive); then the producer of the data it reads; then the most
	// recent reader of its primary input.
	switch {
	case affWrite != nil:
		t.affinity = affWrite
	case affRead != nil:
		t.affinity = affRead
	default:
		t.affinity = affReader
	}
}

package taskrt

import (
	"sort"
	"testing"
	"testing/quick"

	"tdnuca/internal/amath"
)

// naiveTask is the reference model's view of one task: its successors in
// edge-insertion order, its affinity task (-1 for none) and whether it has
// finished.
type naiveTask struct {
	succs    []int
	affinity int
	done     bool
}

// naiveRecord mirrors depRecord with task ids in place of pointers.
type naiveRecord struct {
	rng        amath.Range
	lastWriter int // -1: never written
	readers    []int
}

// naiveRegistry is the reference model of depRegistry: no index, every
// query scans all records in (Start, Size) order.
type naiveRegistry struct {
	recs  []*naiveRecord
	tasks []*naiveTask
}

func (r *naiveRegistry) find(rng amath.Range) *naiveRecord {
	for _, rec := range r.recs {
		if rec.rng == rng {
			return rec
		}
	}
	return nil
}

func (r *naiveRegistry) addEdge(from, to int) {
	for _, s := range r.tasks[from].succs {
		if s == to {
			return
		}
	}
	r.tasks[from].succs = append(r.tasks[from].succs, to)
}

// overlapping returns every record overlapping rng in (Start, Size) order.
func (r *naiveRegistry) overlapping(rng amath.Range) []*naiveRecord {
	var out []*naiveRecord
	for _, rec := range r.recs {
		if rec.rng.Overlaps(rng) {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].rng, out[j].rng
		return a.Start < b.Start || (a.Start == b.Start && a.Size < b.Size)
	})
	return out
}

// insert applies the dataflow rules of depRegistry.insertTask to a new
// task with the given dependencies and returns its id.
func (r *naiveRegistry) insert(deps []Dep) int {
	id := len(r.tasks)
	r.tasks = append(r.tasks, &naiveTask{affinity: -1})
	affRead, affWrite, affReader := -1, -1, -1
	firstReadSeen := false
	live := func(id int) bool { return id >= 0 && !r.tasks[id].done }
	for _, d := range deps {
		if d.Mode.Reads() && !firstReadSeen {
			firstReadSeen = true
			if rec := r.find(d.Range); rec != nil && len(rec.readers) > 0 {
				affReader = rec.readers[len(rec.readers)-1]
			}
		}
		if r.find(d.Range) == nil {
			r.recs = append(r.recs, &naiveRecord{rng: d.Range, lastWriter: -1})
		}
		recs := r.overlapping(d.Range)
		for _, rec := range recs {
			if rec.lastWriter >= 0 && rec.lastWriter != id {
				if d.Mode.Reads() && affRead < 0 {
					affRead = rec.lastWriter
				}
				if d.Mode.Writes() && affWrite < 0 {
					affWrite = rec.lastWriter
				}
			}
			if live(rec.lastWriter) {
				r.addEdge(rec.lastWriter, id) // RAW / WAW
			}
			if d.Mode.Writes() {
				for _, reader := range rec.readers {
					if reader != id && live(reader) {
						r.addEdge(reader, id) // WAR
					}
				}
			}
		}
		for _, rec := range recs {
			if d.Mode.Writes() {
				rec.lastWriter = id
				rec.readers = rec.readers[:0]
			} else {
				rec.readers = append(rec.readers, id)
			}
		}
	}
	switch {
	case affWrite >= 0:
		r.tasks[id].affinity = affWrite
	case affRead >= 0:
		r.tasks[id].affinity = affRead
	default:
		r.tasks[id].affinity = affReader
	}
	return id
}

// TestRegistryMatchesNaiveModel drives depRegistry.insertTask and the
// naive registry with the same random program — In/Out/InOut deps over a
// small address window, so exact duplicates, nested ranges and partial
// overlaps all occur, interleaved with task completions — and requires
// every task's successor list (order included) and affinity to agree.
func TestRegistryMatchesNaiveModel(t *testing.T) {
	modes := [...]Mode{In, Out, InOut}
	f := func(ops []uint64) bool {
		reg := newDepRegistry()
		var model naiveRegistry
		var tasks []*Task
		for _, o := range ops {
			if o%5 == 0 && len(tasks) > 0 {
				// Complete an earlier task: later tasks add no edge from it.
				i := int(o>>3) % len(tasks)
				tasks[i].state = taskDone
				model.tasks[i].done = true
				continue
			}
			ndeps := int(o>>1)%3 + 1
			deps := make([]Dep, ndeps)
			for k := range deps {
				b := o >> (4 + 12*uint(k))
				start := amath.Addr(b%16) * 64
				size := uint64(b>>4%8) * 64 // 0 (empty) to 7 blocks
				deps[k] = Dep{Range: amath.NewRange(start, size), Mode: modes[(b>>7&3)%3]}
			}
			task := &Task{ID: len(tasks), Deps: deps}
			reg.insertTask(task)
			// Place every task on a core equal to its id, so
			// AffinityCore names the affinity task.
			task.Core = task.ID
			tasks = append(tasks, task)
			model.insert(deps)
		}
		for i, task := range tasks {
			want := model.tasks[i]
			if task.AffinityCore() != want.affinity || len(task.succs) != len(want.succs) {
				return false
			}
			for k, s := range task.succs {
				if s.ID != want.succs[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

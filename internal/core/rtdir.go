package core

import (
	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/taskrt"
)

// DirEntry is one RTCacheDirectory record (Sec. III-C1): the dependency's
// start address and size, the MapMask of LLC banks it is mapped to, and
// the use descriptor counting outstanding tasks that will use it. The
// remaining fields are the bookkeeping this runtime keeps alongside to
// issue the correct invalidate/flush sequences and the Fig. 3
// classification.
type DirEntry struct {
	Key     taskrt.DepKey
	Range   amath.Range // virtual
	MapMask arch.Mask   // LLC banks currently holding the dependency
	UseDesc int         // outstanding (created, not yet started) uses

	kind      mapKind // how the dependency is currently mapped
	localCore int     // owning core while kind == mapLocal

	registeredCores arch.Mask // cores whose RRT holds an entry for this dep
	accessorCores   arch.Mask // cores that ever executed a task using this dep
	dirtyUntracked  bool      // written while untracked (interleaved copies may be dirty)
	usedUntracked   bool      // used untracked at least once (interleaved copies may exist)

	// untracked physical subranges of the current mapping whose RRT
	// registration failed (table full); they live interleaved and must be
	// included in the task-end flush.
	untracked []amath.Range

	// Fig. 3 classification.
	everIn, everOut bool
	useCount        uint64 // placement decisions taken for this dep
	bypassCount     uint64 // decisions that predicted non-reuse (bypass)
}

// mapKind describes how a dependency is currently resident in the LLC.
type mapKind uint8

const (
	mapNone    mapKind = iota // not mapped (untracked or flushed)
	mapLocal                  // pinned to localCore's bank (deferred flush)
	mapCluster                // replicated in the clusters of MapMask
)

// RTCacheDirectory is the runtime-side structure tracking the access and
// reuse patterns of every task dependency.
type RTCacheDirectory struct {
	entries map[taskrt.DepKey]*DirEntry
	order   []*DirEntry // stable iteration for deterministic stats
}

// NewRTCacheDirectory returns an empty directory.
func NewRTCacheDirectory() *RTCacheDirectory {
	return &RTCacheDirectory{entries: make(map[taskrt.DepKey]*DirEntry)}
}

// Entry returns the record for a dependency, creating it on first use.
func (d *RTCacheDirectory) Entry(dep taskrt.Dep) *DirEntry {
	key := dep.Key()
	if e, ok := d.entries[key]; ok {
		return e
	}
	e := &DirEntry{Key: key, Range: dep.Range}
	d.entries[key] = e
	d.order = append(d.order, e)
	return e
}

// Len returns the number of tracked dependencies.
func (d *RTCacheDirectory) Len() int { return len(d.entries) }

// Each iterates the entries in creation order.
func (d *RTCacheDirectory) Each(fn func(*DirEntry)) {
	for _, e := range d.order {
		fn(e)
	}
}

// BlockClassification is the TD-NUCA bar of Fig. 3: unique cache blocks
// belonging to task dependencies, broken down by how the runtime used and
// predicted them.
type BlockClassification struct {
	Out       uint64 // blocks of write-only dependencies
	In        uint64 // blocks of read-only dependencies
	Both      uint64 // blocks of dependencies used as both in and out
	NotReused uint64 // blocks of dependencies ever predicted non-reused (bypassed)
}

// DepBlocks returns Out+In+Both+NotReused.
func (b BlockClassification) DepBlocks() uint64 { return b.Out + b.In + b.Both + b.NotReused }

// Classify aggregates the Fig. 3 block classification over all tracked
// dependencies. A dependency whose placement decisions were predominantly
// bypass (the runtime predicted non-reuse at the majority of its uses)
// counts as NotReused; otherwise its in/out usage decides the category.
// Block counts honour the inner-block trimming rule (partial first/last
// blocks are not managed by TD-NUCA).
func (d *RTCacheDirectory) Classify(blockBytes int) BlockClassification {
	var out BlockClassification
	for _, e := range d.order {
		n := uint64(e.Range.InnerBlocks(blockBytes).NumBlocks(blockBytes))
		switch {
		case e.bypassCount*2 > e.useCount:
			out.NotReused += n
		case e.everIn && e.everOut:
			out.Both += n
		case e.everOut:
			out.Out += n
		case e.everIn:
			out.In += n
		}
	}
	return out
}

// Package cache implements the set-associative cache structure used for
// both the private L1 data caches and the NUCA LLC banks: MESI line
// states, tree pseudo-LRU replacement (Table I), range invalidation and
// flushing for the TD-NUCA and R-NUCA cache-management operations, and
// per-cache statistics.
package cache

import (
	"fmt"

	"tdnuca/internal/amath"
)

// State is the MESI coherence state of a cache line.
type State uint8

// MESI states. Invalid lines are not resident.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// IsValid reports whether the state denotes a resident line.
func (s State) IsValid() bool { return s != Invalid }

// A line's tag is its full block number — a simulator can afford the
// wide tag, and it keeps the line identity independent of the
// configurable set-index function. An invalid way holds noTag, so a
// lookup compares tags only. No real block reaches the sentinel: a block
// number is an address divided by the block size, so only 1-byte blocks
// at the very top of the address space could, and Insert rejects that
// one address.
const noTag = ^uint64(0)

// Stats aggregates the activity of one cache.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64 // valid lines displaced by fills
	Writebacks  uint64 // Modified lines displaced or flushed
	Invalidates uint64 // lines removed by coherence/flush actions
}

// Accesses returns Hits+Misses.
func (s *Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRatio returns Hits/Accesses, or 0 when the cache was never accessed.
func (s *Stats) HitRatio() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// Cache is a single set-associative cache array. It stores only tags and
// MESI states; the simulator carries data versions separately. All
// addresses passed in must be physical block-aligned addresses (any
// address within the block works; the low bits are masked off).
//
// Each line sits in a slot, numbered set*ways+way in [0, Slots()). A
// resident line keeps its slot until it is evicted, invalidated or
// flushed, so an owner can keep per-line state (the LLC directory) in a
// slice indexed by the slots the lookups, Insert and the walks return.
type Cache struct {
	blockBytes int
	numSets    int
	ways       int
	setMask    uint64
	setBits    uint     // log2(numSets)
	indexHash  bool     // XOR-folded set index (LLC banks)
	tags       []uint64 // block number per slot (numSets * ways, row-major); noTag when invalid
	states     []State  // MESI state per slot, parallel to tags
	plru       []uint32 // tree pseudo-LRU bits per set
	plruSet    []uint32 // per way: tree bits touch sets (nodes whose LRU side is the right half)
	plruClr    []uint32 // per way: tree bits touch clears
	mru        []uint8  // most-recently-touched way per set (lookup hint)
	valid      []uint16 // valid lines per set: a full set skips the empty-way scan
	resident   int

	// Miss cursor: after Access misses, the cursor remembers (set, tag)
	// so the Insert that services the miss skips the redundant
	// already-resident scan. The cursor asserts only that the tag is
	// absent from the set; since Insert is the sole operation that makes
	// a tag resident and every Insert clears the cursor, the assertion
	// cannot go stale through intervening SetState/Invalidate/Flush
	// traffic on the same cache.
	curSet   int
	curTag   uint64
	curValid bool

	stats Stats
}

// New constructs a cache with the given total capacity in bytes. ways and
// blockBytes must divide capacity into a power-of-two number of sets, and
// ways itself must be a power of two (tree pseudo-LRU requirement; the
// paper's L1s are 8-way and the LLC banks 16-way).
func New(capacityBytes, ways, blockBytes int) (*Cache, error) {
	if ways <= 0 || ways&(ways-1) != 0 {
		return nil, fmt.Errorf("cache: ways (%d) must be a positive power of two", ways)
	}
	if ways > 256 {
		return nil, fmt.Errorf("cache: ways (%d) exceeds the 256-way MRU-hint limit", ways)
	}
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: block size (%d) must be a positive power of two", blockBytes)
	}
	if capacityBytes%(ways*blockBytes) != 0 {
		return nil, fmt.Errorf("cache: capacity %dB not divisible into %d-way sets of %dB blocks",
			capacityBytes, ways, blockBytes)
	}
	numSets := capacityBytes / (ways * blockBytes)
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", numSets)
	}
	tags := make([]uint64, numSets*ways)
	for i := range tags {
		tags[i] = noTag
	}
	c := &Cache{
		blockBytes: blockBytes,
		numSets:    numSets,
		ways:       ways,
		setMask:    uint64(numSets - 1),
		setBits:    amath.Log2(numSets),
		tags:       tags,
		states:     make([]State, numSets*ways),
		plru:       make([]uint32, numSets),
		plruSet:    make([]uint32, ways),
		plruClr:    make([]uint32, ways),
		mru:        make([]uint8, numSets),
		valid:      make([]uint16, numSets),
	}
	c.buildPLRUMasks()
	return c, nil
}

// MustNew is New but panics on error; for configurations already
// validated by arch.Config.Validate.
func MustNew(capacityBytes, ways, blockBytes int) *Cache {
	c, err := New(capacityBytes, ways, blockBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// EnableIndexHash switches the cache to an XOR-folded set index, the
// scheme real last-level caches use. A NUCA bank cannot index with the
// raw low block bits: under address interleaving every block arriving at
// the bank shares its bank-selection bits (leaving 1/banks of the sets
// usable), while under single-bank placement a contiguous region varies
// *only* in those low bits. Folding several block-number chunks together
// spreads both populations over all sets. Call before first use.
func (c *Cache) EnableIndexHash() { c.indexHash = true }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Resident returns the number of valid lines currently stored.
func (c *Cache) Resident() int { return c.resident }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Slots returns the number of line slots, Sets()*Ways().
func (c *Cache) Slots() int { return len(c.tags) }

func (c *Cache) index(addr amath.Addr) (set int, tag uint64) {
	block := addr.Block(c.blockBytes)
	if !c.indexHash {
		return int(block & c.setMask), block
	}
	h := block ^ block>>c.setBits ^ block>>(2*c.setBits) ^ block>>(3*c.setBits)
	return int(h & c.setMask), block
}

func (c *Cache) find(set int, tag uint64) int {
	base := set * c.ways
	// MRU-way hint: repeated accesses to the same block (the
	// read-modify-write pattern of streaming task bodies) hit the way
	// touched last, so probe it before scanning the whole set.
	// Invalid ways hold noTag, which no block matches, so one compare
	// per way decides.
	if w := int(c.mru[set]); w < c.ways && c.tags[base+w] == tag {
		return w
	}
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return w
		}
	}
	return -1
}

// Probe returns the MESI state of the block without touching replacement
// state or statistics (a coherence snoop, not a demand access).
func (c *Cache) Probe(addr amath.Addr) State {
	st, _ := c.ProbeSlot(addr)
	return st
}

// ProbeSlot is Probe that also returns the line's slot (-1 when the
// block is not resident).
//
//tdnuca:hotpath
func (c *Cache) ProbeSlot(addr amath.Addr) (State, int) {
	set, tag := c.index(addr)
	if w := c.find(set, tag); w >= 0 {
		slot := set*c.ways + w
		return c.states[slot], slot
	}
	return Invalid, -1
}

// Access performs a demand lookup: on a hit it promotes the line in the
// pseudo-LRU tree and returns its state; on a miss it returns Invalid.
// Hit/miss statistics are updated. A miss arms the miss cursor so the
// Insert that services it skips its redundant residency scan — together
// the Access→Insert sequence of a miss+fill scans the set's ways once.
//
//tdnuca:hotpath
func (c *Cache) Access(addr amath.Addr) State {
	st, _ := c.AccessSlot(addr)
	return st
}

// AccessSlot is Access that also returns the hit line's slot (-1 on a
// miss).
//
//tdnuca:hotpath
func (c *Cache) AccessSlot(addr amath.Addr) (State, int) {
	set, tag := c.index(addr)
	if w := c.find(set, tag); w >= 0 {
		c.touch(set, w)
		c.stats.Hits++
		slot := set*c.ways + w
		return c.states[slot], slot
	}
	c.stats.Misses++
	c.curSet, c.curTag, c.curValid = set, tag, true
	return Invalid, -1
}

// Victim describes the outcome of Insert: the slot the block now
// occupies and the line it displaced, if any.
type Victim struct {
	Addr     amath.Addr // block base address of the displaced line
	State    State
	Occurred bool // false when the fill used an empty way or the block was resident
	Slot     int  // slot of the inserted block (and of the displaced line)
}

// Insert fills the block with the given state, evicting the pseudo-LRU
// way if the set is full. If the block is already resident its state is
// simply updated (no eviction). The displaced line, if any, is returned
// so the caller can issue a writeback when it was Modified.
//
//tdnuca:hotpath
func (c *Cache) Insert(addr amath.Addr, st State) Victim {
	if !st.IsValid() {
		panic("cache: Insert with Invalid state")
	}
	set, tag := c.index(addr)
	if tag == noTag {
		panic("cache: Insert of the block number reserved for invalid ways (1-byte blocks at the top address)")
	}
	base := set * c.ways
	// The miss cursor proves the tag absent when this Insert services the
	// Access that just missed; only then can the residency scan be skipped.
	skipFind := c.curValid && c.curSet == set && c.curTag == tag
	c.curValid = false
	if !skipFind {
		if w := c.find(set, tag); w >= 0 {
			c.states[base+w] = st
			c.touch(set, w)
			return Victim{Slot: base + w}
		}
	}
	return c.fillWay(set, tag, st)
}

// fillWay is the combined lookup-or-victim step: it takes the first
// empty way of a set that has one, and the pseudo-LRU victim of a full
// set. The caller guarantees the tag is not resident.
func (c *Cache) fillWay(set int, tag uint64, st State) Victim {
	base := set * c.ways
	if int(c.valid[set]) < c.ways {
		w := 0
		for c.states[base+w].IsValid() {
			w++
		}
		c.tags[base+w], c.states[base+w] = tag, st
		c.valid[set]++
		c.resident++
		c.touch(set, w)
		return Victim{Slot: base + w}
	}
	// Evict the pseudo-LRU way.
	w := c.plruVictim(set)
	vState := c.states[base+w]
	c.stats.Evictions++
	if vState == Modified {
		c.stats.Writebacks++
	}
	vAddr := c.blockAddr(c.tags[base+w])
	c.tags[base+w], c.states[base+w] = tag, st
	c.touch(set, w)
	return Victim{Addr: vAddr, State: vState, Occurred: true, Slot: base + w}
}

func (c *Cache) blockAddr(tag uint64) amath.Addr {
	return amath.Addr(tag * uint64(c.blockBytes))
}

// SetState changes the MESI state of a resident block (coherence
// downgrades/upgrades). It reports whether the block was resident.
func (c *Cache) SetState(addr amath.Addr, st State) bool {
	if !st.IsValid() {
		panic("cache: SetState to Invalid; use Invalidate")
	}
	set, tag := c.index(addr)
	if w := c.find(set, tag); w >= 0 {
		c.states[set*c.ways+w] = st
		return true
	}
	return false
}

// Invalidate removes the block, returning the state it held (Invalid if
// not resident). A Modified line counts as a writeback.
func (c *Cache) Invalidate(addr amath.Addr) State {
	set, tag := c.index(addr)
	w := c.find(set, tag)
	if w < 0 {
		return Invalid
	}
	return c.drop(set, w)
}

// drop removes the valid line in way w of set and returns its state. A
// Modified line counts as a writeback.
func (c *Cache) drop(set, w int) State {
	slot := set*c.ways + w
	st := c.states[slot]
	c.tags[slot], c.states[slot] = noTag, Invalid
	c.valid[set]--
	c.resident--
	c.stats.Invalidates++
	if st == Modified {
		c.stats.Writebacks++
	}
	return st
}

// FlushRange invalidates every resident block whose base address lies in
// the physical range, invoking fn (if non-nil) with the block address,
// its prior state and its slot before removal. It returns the number of
// blocks flushed. This implements the bulk flush of tdnuca_flush and the
// page flushes of R-NUCA reclassification.
func (c *Cache) FlushRange(r amath.Range, fn func(block amath.Addr, st State, slot int)) int {
	flushed := 0
	r.EachBlock(c.blockBytes, func(block amath.Addr) {
		set, tag := c.index(block)
		if w := c.find(set, tag); w >= 0 {
			if fn != nil {
				fn(block, c.states[set*c.ways+w], set*c.ways+w)
			}
			c.drop(set, w)
			flushed++
		}
	})
	return flushed
}

// EachResident calls fn for every valid line, in set-then-way order,
// with the line's block address, state and slot. fn may invalidate the
// line it is given.
func (c *Cache) EachResident(fn func(block amath.Addr, st State, slot int)) {
	for slot, st := range c.states {
		if st.IsValid() {
			fn(c.blockAddr(c.tags[slot]), st, slot)
		}
	}
}

// touch updates the pseudo-LRU tree so the accessed way becomes most
// recently used: every tree node on the path is pointed away from it, by
// the way's precomputed masks. The way is also recorded as the set's MRU
// lookup hint.
func (c *Cache) touch(set, way int) {
	c.mru[set] = uint8(way)
	c.plru[set] = (c.plru[set] | c.plruSet[way]) &^ c.plruClr[way]
}

// buildPLRUMasks walks the tree once per way, recording which node bits
// touch sets (the way is in the node's left half, so the right half
// becomes LRU) and which it clears.
func (c *Cache) buildPLRUMasks() {
	for w := range c.plruSet {
		var set, clr uint32
		node, way := 0, w
		for span := c.ways; span > 1; span /= 2 {
			half := span / 2
			if way < half {
				set |= 1 << uint(node)
				node = 2*node + 1
			} else {
				clr |= 1 << uint(node)
				node = 2*node + 2
				way -= half
			}
		}
		c.plruSet[w], c.plruClr[w] = set, clr
	}
}

// plruVictim walks the tree in the direction each node's bit points,
// yielding the pseudo-least-recently-used way.
func (c *Cache) plruVictim(set int) int {
	if c.ways == 1 {
		return 0
	}
	bits := c.plru[set]
	node, way := 0, 0
	for span := c.ways; span > 1; span /= 2 {
		half := span / 2
		if bits&(1<<uint(node)) != 0 {
			// Bit points right: right half is LRU.
			way += half
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
	return way
}

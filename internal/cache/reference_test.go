package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tdnuca/internal/amath"
)

// refCache is the array-of-structs cache the split tag/state arrays
// replaced: one {tag, state} line per slot, a lookup that checks state
// and tag of every way, and a pseudo-LRU touch that walks the tree. It
// keeps none of Cache's shortcuts (MRU hint, miss cursor, per-set valid
// count, PLRU masks), none of which may change what a caller sees, so it
// is the oracle for them too.
type refCache struct {
	blockBytes int
	numSets    int
	ways       int
	setBits    uint
	indexHash  bool
	lines      []refLine
	plru       []uint32
	stats      Stats
	resident   int
}

type refLine struct {
	tag   uint64
	state State
}

func newRefCache(capacity, ways, blockBytes int, indexHash bool) *refCache {
	numSets := capacity / (ways * blockBytes)
	return &refCache{
		blockBytes: blockBytes,
		numSets:    numSets,
		ways:       ways,
		setBits:    amath.Log2(numSets),
		indexHash:  indexHash,
		lines:      make([]refLine, numSets*ways),
		plru:       make([]uint32, numSets),
	}
}

func (r *refCache) index(addr amath.Addr) (int, uint64) {
	block := addr.Block(r.blockBytes)
	h := block
	if r.indexHash {
		h = block ^ block>>r.setBits ^ block>>(2*r.setBits) ^ block>>(3*r.setBits)
	}
	return int(h & uint64(r.numSets-1)), block
}

func (r *refCache) find(set int, tag uint64) int {
	for w := 0; w < r.ways; w++ {
		if l := r.lines[set*r.ways+w]; l.state.IsValid() && l.tag == tag {
			return w
		}
	}
	return -1
}

func (r *refCache) touch(set, way int) {
	bits := r.plru[set]
	node := 0
	for span := r.ways; span > 1; span /= 2 {
		half := span / 2
		if way < half {
			bits |= 1 << uint(node)
			node = 2*node + 1
		} else {
			bits &^= 1 << uint(node)
			node = 2*node + 2
			way -= half
		}
	}
	r.plru[set] = bits
}

func (r *refCache) victim(set int) int {
	bits := r.plru[set]
	node, way := 0, 0
	for span := r.ways; span > 1; span /= 2 {
		half := span / 2
		if bits&(1<<uint(node)) != 0 {
			way += half
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
	return way
}

func (r *refCache) probeSlot(addr amath.Addr) (State, int) {
	set, tag := r.index(addr)
	if w := r.find(set, tag); w >= 0 {
		return r.lines[set*r.ways+w].state, set*r.ways + w
	}
	return Invalid, -1
}

func (r *refCache) accessSlot(addr amath.Addr) (State, int) {
	set, tag := r.index(addr)
	if w := r.find(set, tag); w >= 0 {
		r.touch(set, w)
		r.stats.Hits++
		return r.lines[set*r.ways+w].state, set*r.ways + w
	}
	r.stats.Misses++
	return Invalid, -1
}

func (r *refCache) insert(addr amath.Addr, st State) Victim {
	set, tag := r.index(addr)
	base := set * r.ways
	if w := r.find(set, tag); w >= 0 {
		r.lines[base+w].state = st
		r.touch(set, w)
		return Victim{Slot: base + w}
	}
	for w := 0; w < r.ways; w++ {
		if !r.lines[base+w].state.IsValid() {
			r.lines[base+w] = refLine{tag, st}
			r.resident++
			r.touch(set, w)
			return Victim{Slot: base + w}
		}
	}
	w := r.victim(set)
	v := r.lines[base+w]
	r.stats.Evictions++
	if v.state == Modified {
		r.stats.Writebacks++
	}
	r.lines[base+w] = refLine{tag, st}
	r.touch(set, w)
	return Victim{Addr: amath.Addr(v.tag * uint64(r.blockBytes)), State: v.state, Occurred: true, Slot: base + w}
}

func (r *refCache) setState(addr amath.Addr, st State) bool {
	set, tag := r.index(addr)
	if w := r.find(set, tag); w >= 0 {
		r.lines[set*r.ways+w].state = st
		return true
	}
	return false
}

func (r *refCache) drop(slot int) State {
	st := r.lines[slot].state
	r.lines[slot] = refLine{}
	r.resident--
	r.stats.Invalidates++
	if st == Modified {
		r.stats.Writebacks++
	}
	return st
}

func (r *refCache) invalidate(addr amath.Addr) State {
	set, tag := r.index(addr)
	w := r.find(set, tag)
	if w < 0 {
		return Invalid
	}
	return r.drop(set*r.ways + w)
}

// residentLine is one line as the FlushRange and EachResident callbacks
// report it.
type residentLine struct {
	Block amath.Addr
	State State
	Slot  int
}

func (r *refCache) flushRange(rg amath.Range) (int, []residentLine) {
	var seen []residentLine
	rg.EachBlock(r.blockBytes, func(block amath.Addr) {
		set, tag := r.index(block)
		if w := r.find(set, tag); w >= 0 {
			slot := set*r.ways + w
			seen = append(seen, residentLine{block, r.lines[slot].state, slot})
			r.drop(slot)
		}
	})
	return len(seen), seen
}

func (r *refCache) eachResident() []residentLine {
	var seen []residentLine
	for slot, l := range r.lines {
		if l.state.IsValid() {
			seen = append(seen, residentLine{amath.Addr(l.tag * uint64(r.blockBytes)), l.state, slot})
		}
	}
	return seen
}

// cacheOp is one step of a random operation stream; addresses are drawn
// from a footprint three times the cache capacity so that hits, misses,
// fills into empty ways and evictions all occur.
type cacheOp struct {
	Kind  uint8
	Block uint16
	Len   uint8
	State uint8
}

// cacheOps is a random operation stream for quick.Check.
type cacheOps []cacheOp

func (cacheOps) Generate(rng *rand.Rand, _ int) reflect.Value {
	ops := make(cacheOps, 200+rng.Intn(400))
	for i := range ops {
		ops[i] = cacheOp{
			Kind:  uint8(rng.Intn(12)),
			Block: uint16(rng.Intn(1 << 16)),
			Len:   uint8(rng.Intn(8)),
			State: uint8(rng.Intn(3)),
		}
	}
	return reflect.ValueOf(ops)
}

// TestCacheMatchesReference drives Cache and refCache in lockstep through
// random streams of every public operation (the slot-addressed mutators
// after the ProbeSlot that found their slot), on 1-, 2-, 8- and 16-way
// geometries with and without the hashed set index, and compares every
// returned state, slot and Victim plus Stats and Resident after each
// operation.
func TestCacheMatchesReference(t *testing.T) {
	const block = 64
	for _, ways := range []int{1, 2, 8, 16} {
		for _, hash := range []bool{false, true} {
			capacity := 8 * ways * block // 8 sets
			footprint := 3 * capacity / block
			check := func(ops cacheOps) bool {
				c := MustNew(capacity, ways, block)
				if hash {
					c.EnableIndexHash()
				}
				ref := newRefCache(capacity, ways, block, hash)
				for i, op := range ops {
					addr := amath.Addr(int(op.Block)%footprint*block + int(op.Block)%block)
					st := Shared + State(op.State)
					var got, want any
					switch op.Kind {
					case 0, 1:
						gs, gslot := c.AccessSlot(addr)
						ws, wslot := ref.accessSlot(addr)
						got, want = [2]any{gs, gslot}, [2]any{ws, wslot}
					case 2:
						// A miss followed by the fill that services it: the
						// path that arms and consumes the miss cursor.
						gs, gslot := c.AccessSlot(addr)
						ws, wslot := ref.accessSlot(addr)
						gv, wv := Victim{}, Victim{}
						if gs == Invalid {
							gv = c.Insert(addr, st)
						}
						if ws == Invalid {
							wv = ref.insert(addr, st)
						}
						got, want = [3]any{gs, gslot, gv}, [3]any{ws, wslot, wv}
					case 3:
						got, want = c.Insert(addr, st), ref.insert(addr, st)
					case 4:
						gs, gslot := c.ProbeSlot(addr)
						ws, wslot := ref.probeSlot(addr)
						got, want = [2]any{gs, gslot}, [2]any{ws, wslot}
					case 5:
						got, want = c.SetState(addr, st), ref.setState(addr, st)
					case 6:
						got, want = c.Invalidate(addr), ref.invalidate(addr)
					case 7:
						rg := amath.NewRange(addr, uint64(op.Len)*block)
						var seen []residentLine
						n := c.FlushRange(rg, func(b amath.Addr, s State, slot int) {
							seen = append(seen, residentLine{b, s, slot})
						})
						wn, wseen := ref.flushRange(rg)
						got, want = [2]any{n, seen}, [2]any{wn, wseen}
					case 8, 9:
						// A probe and the slot-addressed mutation of the line
						// it found: the machine's coherence pattern.
						gs, gslot := c.ProbeSlot(addr)
						ws, wslot := ref.probeSlot(addr)
						var gm, wm State
						if gs.IsValid() {
							if op.Kind == 8 {
								c.SetStateSlot(gslot, st)
							} else {
								gm = c.InvalidateSlot(gslot)
							}
						}
						if ws.IsValid() {
							if op.Kind == 8 {
								ref.lines[wslot].state = st
							} else {
								wm = ref.drop(wslot)
							}
						}
						got, want = [3]any{gs, gslot, gm}, [3]any{ws, wslot, wm}
					case 10:
						// A miss, then an Insert into another set before the
						// fill that services the miss: the intervening Insert
						// must disarm the miss cursor.
						other := otherSetBlock(ref, addr, footprint)
						gs, gslot := c.AccessSlot(addr)
						ws, wslot := ref.accessSlot(addr)
						gv, wv := c.Insert(other, st), ref.insert(other, st)
						gf, wf := Victim{}, Victim{}
						if gs == Invalid {
							gf = c.Insert(addr, st)
						}
						if ws == Invalid {
							wf = ref.insert(addr, st)
						}
						got, want = [4]any{gs, gslot, gv, gf}, [4]any{ws, wslot, wv, wf}
					default:
						var seen []residentLine
						c.EachResident(func(b amath.Addr, s State, slot int) {
							seen = append(seen, residentLine{b, s, slot})
						})
						got, want = seen, ref.eachResident()
					}
					if !reflect.DeepEqual(got, want) {
						t.Logf("ways=%d hash=%v op %d %+v: got %v, want %v", ways, hash, i, op, got, want)
						return false
					}
					if c.Stats() != ref.stats || c.Resident() != ref.resident {
						t.Logf("ways=%d hash=%v op %d %+v: stats %+v resident %d, want %+v resident %d",
							ways, hash, i, op, c.Stats(), c.Resident(), ref.stats, ref.resident)
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
				t.Errorf("ways=%d hash=%v: %v", ways, hash, err)
			}
		}
	}
}

// otherSetBlock returns the first block of the footprint, scanning up
// from addr's, that maps to a different set than addr (addr itself when
// the cache has one set).
func otherSetBlock(r *refCache, addr amath.Addr, footprint int) amath.Addr {
	set, _ := r.index(addr)
	b := addr.Block(r.blockBytes)
	for i := uint64(1); i < uint64(footprint); i++ {
		cand := amath.Addr((b + i) % uint64(footprint) * uint64(r.blockBytes))
		if s, _ := r.index(cand); s != set {
			return cand
		}
	}
	return addr
}

// TestPLRUVictimMatchesTreeWalk checks the branch-free victim against
// the reference tree walk on every tree state at up to 16 ways (2^15
// states) and on random states at 32 ways, the widest New accepts.
func TestPLRUVictimMatchesTreeWalk(t *testing.T) {
	const block = 64
	for _, ways := range []int{1, 2, 4, 8, 16} {
		c := MustNew(ways*block, ways, block)
		ref := newRefCache(ways*block, ways, block, false)
		for bits := uint32(0); bits < 1<<(ways-1); bits++ {
			c.plru[0], ref.plru[0] = bits, bits
			if got, want := c.plruVictim(0), ref.victim(0); got != want {
				t.Fatalf("ways=%d tree %#x: victim %d, tree walk %d", ways, bits, got, want)
			}
		}
	}
	const ways = 32
	c := MustNew(ways*block, ways, block)
	ref := newRefCache(ways*block, ways, block, false)
	agree := func(bits uint32) bool {
		c.plru[0], ref.plru[0] = bits, bits
		return c.plruVictim(0) == ref.victim(0)
	}
	if err := quick.Check(agree, &quick.Config{MaxCount: 20000}); err != nil {
		t.Errorf("ways=32: %v", err)
	}
}

// TestSlotOpsPanicOnEmptySlot pins the slot mutators' guard: a slot that
// holds no valid line — never filled, or vacated since the lookup that
// returned it — is a caller bug, not a no-op.
func TestSlotOpsPanicOnEmptySlot(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	c := MustNew(4*64, 4, 64)
	mustPanic("SetStateSlot on a cold slot", func() { c.SetStateSlot(0, Modified) })
	mustPanic("InvalidateSlot on a cold slot", func() { c.InvalidateSlot(0) })
	slot := c.Insert(0, Exclusive).Slot
	mustPanic("SetStateSlot to Invalid", func() { c.SetStateSlot(slot, Invalid) })
	if st := c.InvalidateSlot(slot); st != Exclusive {
		t.Fatalf("InvalidateSlot returned %v, want E", st)
	}
	mustPanic("SetStateSlot on a vacated slot", func() { c.SetStateSlot(slot, Shared) })
	mustPanic("InvalidateSlot on a vacated slot", func() { c.InvalidateSlot(slot) })
	if c.Resident() != 0 || c.Stats().Invalidates != 1 {
		t.Errorf("resident %d invalidates %d after the panics, want 0 and 1", c.Resident(), c.Stats().Invalidates)
	}
}

// TestInsertSentinelBlockPanics pins the guard on the invalid-way tag:
// with 1-byte blocks the top address is block number noTag, which would
// be indistinguishable from an empty way, so Insert refuses it.
func TestInsertSentinelBlockPanics(t *testing.T) {
	c := MustNew(4*4, 4, 1)
	c.Insert(amath.Addr(noTag-1), Shared) // the block below the sentinel is fine
	defer func() {
		if recover() == nil {
			t.Error("Insert of the sentinel block did not panic")
		}
	}()
	c.Insert(amath.Addr(noTag), Shared)
}

// BenchmarkCacheAccessMiss times a demand miss and its fill on a full
// 16-way set: every access scans all ways and every fill evicts the
// pseudo-LRU victim.
func BenchmarkCacheAccessMiss(b *testing.B) {
	const ways, block = 16, 64
	c := MustNew(ways*block, ways, block) // one set
	for i := 0; i < ways; i++ {
		c.Insert(amath.Addr(i*block), Shared)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := amath.Addr((ways + i) * block)
		if c.Access(addr) == Invalid {
			c.Insert(addr, Shared)
		}
	}
}

// BenchmarkCacheInsertEvict times Insert on a hashed 16-way bank in
// steady state: every set is full and every block is new, so each fill
// scans its set, misses and evicts the pseudo-LRU victim.
func BenchmarkCacheInsertEvict(b *testing.B) {
	const ways, block, sets = 16, 64, 256
	c := MustNew(sets*ways*block, ways, block)
	c.EnableIndexHash()
	for i := 0; i < c.Slots(); i++ {
		c.Insert(amath.Addr(i*block), Exclusive)
	}
	if c.Resident() != c.Slots() {
		b.Fatalf("warm-up filled %d of %d slots", c.Resident(), c.Slots())
	}
	base := c.Slots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(amath.Addr((base+i)*block), Exclusive)
	}
}

package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tdnuca/internal/amath"
)

func mk(t *testing.T, capacity, ways int) *Cache {
	t.Helper()
	c, err := New(capacity, ways, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	cases := []struct{ cap, ways, block int }{
		{1024, 3, 64},       // non-pow2 ways
		{1000, 4, 64},       // capacity not divisible
		{1024, 4, 48},       // non-pow2 block
		{64 * 4 * 3, 4, 64}, // 3 sets, not pow2
		{1024, 0, 64},
		{64 * 64 * 64, 64, 64}, // wider than the 32-bit pseudo-LRU tree
		{128 * 64, 128, 64},
	}
	for _, c := range cases {
		if _, err := New(c.cap, c.ways, c.block); err == nil {
			t.Errorf("New(%d,%d,%d) accepted bad geometry", c.cap, c.ways, c.block)
		}
	}
}

func TestHitMissAndStats(t *testing.T) {
	c := mk(t, 8*64, 2) // 4 sets, 2 ways
	if st := c.Access(0); st != Invalid {
		t.Errorf("cold access = %v", st)
	}
	c.Insert(0, Exclusive)
	if st := c.Access(0); st != Exclusive {
		t.Errorf("warm access = %v", st)
	}
	// Any address within the block hits.
	if st := c.Access(63); st != Exclusive {
		t.Errorf("intra-block access = %v", st)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRatio() != 2.0/3.0 {
		t.Errorf("hit ratio = %v", s.HitRatio())
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := mk(t, 8*64, 2)
	c.Insert(0, Modified)
	before := c.Stats()
	if st := c.Probe(0); st != Modified {
		t.Errorf("Probe = %v", st)
	}
	if st := c.Probe(64); st != Invalid {
		t.Errorf("Probe absent = %v", st)
	}
	if c.Stats() != before {
		t.Error("Probe changed statistics")
	}
}

func TestInsertEvictsWithinSet(t *testing.T) {
	c := mk(t, 4*64, 2) // 2 sets, 2 ways; set = block % 2
	// Fill set 0 (blocks 0, 2 map to set 0).
	c.Insert(0*64, Exclusive)
	c.Insert(2*64, Exclusive)
	if v := c.Insert(4*64, Exclusive); !v.Occurred {
		t.Fatal("third block in a 2-way set did not evict")
	}
	// Set 1 untouched.
	c.Insert(1*64, Exclusive)
	if v := c.Insert(3*64, Exclusive); v.Occurred {
		t.Error("fill into empty way evicted")
	}
	if c.Resident() != 4 {
		t.Errorf("resident = %d, want 4", c.Resident())
	}
}

func TestEvictionReportsModifiedWriteback(t *testing.T) {
	c := mk(t, 2*64, 2) // 1 set, 2 ways
	c.Insert(0, Modified)
	c.Insert(64, Exclusive)
	v := c.Insert(128, Exclusive)
	if !v.Occurred {
		t.Fatal("no eviction in full set")
	}
	if v.State != Modified || v.Addr != 0 {
		t.Errorf("victim = %+v, want Modified block 0 (LRU)", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestPLRUNeverEvictsMRU(t *testing.T) {
	f := func(accesses []uint8, ways8 bool) bool {
		ways := 4
		if ways8 {
			ways = 8
		}
		c := MustNew(ways*64, ways, 64) // single set
		var last amath.Addr = ^amath.Addr(0)
		for _, a := range accesses {
			addr := amath.Addr(a) * 64
			v := c.Insert(addr, Exclusive)
			if v.Occurred && v.Addr == last && last != addr {
				return false // evicted the block touched immediately before
			}
			last = addr
			if v.Occurred && v.Addr == addr {
				return false // evicted the block being inserted
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPLRUFollowsLRUForSequentialFill(t *testing.T) {
	// Fill an 8-way set 0..7, then insert 8: tree PLRU with sequential
	// touches evicts way 0's block (true LRU in this pattern).
	c := mk(t, 8*64, 8)
	for i := 0; i < 8; i++ {
		c.Insert(amath.Addr(i*8*64), Exclusive) // all map to set 0 (8 sets? no: 1 set)
	}
	// 8*64 capacity, 8 ways -> 1 set; every block maps there.
	v := c.Insert(amath.Addr(8*8*64), Exclusive)
	if !v.Occurred || v.Addr != 0 {
		t.Errorf("victim = %+v, want block 0", v)
	}
}

func TestReinsertUpdatesStateWithoutEviction(t *testing.T) {
	c := mk(t, 2*64, 2)
	c.Insert(0, Shared)
	v := c.Insert(0, Modified)
	if v.Occurred {
		t.Error("re-insert evicted")
	}
	if c.Probe(0) != Modified {
		t.Error("re-insert did not update state")
	}
	if c.Resident() != 1 {
		t.Errorf("resident = %d", c.Resident())
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := mk(t, 2*64, 2)
	c.Insert(0, Exclusive)
	if !c.SetState(0, Shared) {
		t.Error("SetState missed resident block")
	}
	if c.SetState(64, Shared) {
		t.Error("SetState found absent block")
	}
	if st := c.Invalidate(0); st != Shared {
		t.Errorf("Invalidate returned %v, want S", st)
	}
	if st := c.Invalidate(0); st != Invalid {
		t.Errorf("double Invalidate returned %v", st)
	}
	if c.Resident() != 0 {
		t.Error("Invalidate did not free the line")
	}
}

func TestInvalidateModifiedCountsWriteback(t *testing.T) {
	c := mk(t, 2*64, 2)
	c.Insert(0, Modified)
	c.Invalidate(0)
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestFlushRange(t *testing.T) {
	c := mk(t, 64*64, 4)
	for i := 0; i < 16; i++ {
		c.Insert(amath.Addr(i*64), Exclusive)
	}
	c.SetState(4*64, Shared)
	c.Insert(4*64, Modified)
	var flushed []amath.Addr
	n := c.FlushRange(amath.NewRange(2*64, 6*64), func(b amath.Addr, st State, _ int) {
		flushed = append(flushed, b)
		if b == 4*64 && st != Modified {
			t.Errorf("flush callback state for block 4 = %v", st)
		}
	})
	if n != 6 || len(flushed) != 6 {
		t.Fatalf("flushed %d blocks, want 6", n)
	}
	for i := 2; i < 8; i++ {
		if c.Probe(amath.Addr(i*64)) != Invalid {
			t.Errorf("block %d survived flush", i)
		}
	}
	if c.Probe(0) == Invalid || c.Probe(8*64) == Invalid {
		t.Error("flush removed blocks outside the range")
	}
	if c.Resident() != 10 {
		t.Errorf("resident = %d, want 10", c.Resident())
	}
}

func TestFlushRangeNilCallback(t *testing.T) {
	c := mk(t, 4*64, 2)
	c.Insert(0, Modified)
	if n := c.FlushRange(amath.NewRange(0, 64), nil); n != 1 {
		t.Errorf("flushed %d, want 1", n)
	}
}

func TestEachResident(t *testing.T) {
	c := mk(t, 8*64, 2)
	want := map[amath.Addr]State{0: Modified, 64: Shared, 128: Exclusive}
	for a, s := range want {
		c.Insert(a, s)
	}
	got := map[amath.Addr]State{}
	c.EachResident(func(b amath.Addr, st State, _ int) { got[b] = st })
	if len(got) != len(want) {
		t.Fatalf("EachResident visited %d lines, want %d", len(got), len(want))
	}
	for a, s := range want {
		if got[a] != s {
			t.Errorf("block %d state %v, want %v", a, got[a], s)
		}
	}
}

func TestResidentNeverExceedsCapacity(t *testing.T) {
	f := func(blocks []uint16) bool {
		c := MustNew(16*64, 4, 64) // 4 sets x 4 ways = 16 lines
		for _, b := range blocks {
			c.Insert(amath.Addr(b)*64, Exclusive)
			if c.Resident() > 16 {
				return false
			}
		}
		// Every inserted state must be re-findable or evicted; count via iteration.
		n := 0
		c.EachResident(func(amath.Addr, State, int) { n++ })
		return n == c.Resident()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	f := func(b uint16) bool {
		c := MustNew(64*64, 4, 64)
		addr := amath.Addr(b) * 64
		c.Insert(addr, Exclusive)
		found := false
		c.EachResident(func(got amath.Addr, _ State, _ int) {
			if got == addr {
				found = true
			}
		})
		return found
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("State.String wrong")
	}
	if Invalid.IsValid() || !Modified.IsValid() {
		t.Error("IsValid wrong")
	}
}

func TestIndexHashSpreadsBankResidents(t *testing.T) {
	// A 16-bank NUCA: blocks arriving at bank 3 all satisfy
	// blockNum % 16 == 3. Without hashing they collapse into 1/16 of the
	// sets; with hashing they must spread over (nearly) all sets.
	const banks = 16
	fill := func(hash bool) int {
		c := MustNew(64*16*64, 16, 64) // 64 sets x 16 ways
		if hash {
			c.EnableIndexHash()
		}
		// 1024 interleaved-resident blocks of bank 3.
		for i := 0; i < 1024; i++ {
			c.Insert(amath.Addr((i*banks+3)*64), Exclusive)
		}
		return c.Resident()
	}
	if got := fill(false); got != 64 { // 4 sets x 16 ways
		t.Errorf("unhashed bank kept %d lines, want the 64-line pathology", got)
	}
	if got := fill(true); got < 900 {
		t.Errorf("hashed bank kept %d of 1024 lines; expected near-full retention", got)
	}
}

func TestIndexHashSpreadsContiguousRegions(t *testing.T) {
	// The dual pathology: a single-bank (local) mapping receives a
	// contiguous region whose blocks vary only in their low bits.
	c := MustNew(64*16*64, 16, 64)
	c.EnableIndexHash()
	for i := 0; i < 1024; i++ {
		c.Insert(amath.Addr(i*64), Exclusive)
	}
	if got := c.Resident(); got < 900 {
		t.Errorf("hashed cache kept %d of 1024 contiguous lines", got)
	}
}

func TestIndexHashStillFindsBlocks(t *testing.T) {
	c := MustNew(16*64, 4, 64)
	c.EnableIndexHash()
	c.Insert(0x1000, Modified)
	if st := c.Probe(0x1000); st != Modified {
		t.Errorf("Probe after hashed insert = %v", st)
	}
	if st := c.Invalidate(0x1000); st != Modified {
		t.Errorf("Invalidate after hashed insert = %v", st)
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	c := mk(t, 2*64, 2)
	defer func() {
		if recover() == nil {
			t.Error("Insert(Invalid) did not panic")
		}
	}()
	c.Insert(0, Invalid)
}

// TestPLRUVictimProperty drives a long pseudo-random touch sequence
// through the replacement state and checks the tree-PLRU contract on
// every step: the victim is always a valid way index, and the way just
// touched is never the immediate next victim (the defining property
// pseudo-LRU keeps of true LRU).
func TestPLRUVictimProperty(t *testing.T) {
	for _, ways := range []int{2, 4, 8, 16} {
		c := mk(t, 4*ways*64, ways) // 4 sets
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			set := rng.Intn(c.Sets())
			w := rng.Intn(ways)
			c.touch(set, w)
			v := c.plruVictim(set)
			if v < 0 || v >= ways {
				t.Fatalf("ways=%d: victim %d out of range [0,%d)", ways, v, ways)
			}
			if v == w {
				t.Fatalf("ways=%d set=%d: way %d touched and immediately chosen as victim", ways, set, w)
			}
		}
	}
}

// TestSlotsIdentifyLines pins the slot contract the LLC directory relies
// on: Insert, AccessSlot, ProbeSlot, EachResident and FlushRange agree on
// a resident line's slot, no two resident lines share one, and a line
// keeps its slot until it leaves the cache.
func TestSlotsIdentifyLines(t *testing.T) {
	f := func(blocks []uint8) bool {
		c := MustNew(16*64, 4, 64) // 4 sets x 4 ways
		c.EnableIndexHash()
		slotOf := map[amath.Addr]int{}
		for _, b := range blocks {
			addr := amath.Addr(b%64) * 64
			if _, ok := slotOf[addr]; ok && b&0x80 != 0 {
				c.Invalidate(addr)
				delete(slotOf, addr)
				continue
			}
			v := c.Insert(addr, Exclusive)
			if v.Occurred {
				if s, ok := slotOf[v.Addr]; !ok || s != v.Slot {
					return false
				}
				delete(slotOf, v.Addr)
			}
			if s, ok := slotOf[addr]; ok && s != v.Slot {
				return false
			}
			slotOf[addr] = v.Slot
		}
		for addr, slot := range slotOf {
			if st, s := c.ProbeSlot(addr); st != Exclusive || s != slot {
				return false
			}
			if st, s := c.AccessSlot(addr); st != Exclusive || s != slot {
				return false
			}
		}
		seen := map[int]bool{}
		ok := true
		c.EachResident(func(b amath.Addr, _ State, slot int) {
			ok = ok && slotOf[b] == slot && !seen[slot] && slot < c.Slots()
			seen[slot] = true
		})
		c.FlushRange(amath.NewRange(0, 64*64), func(b amath.Addr, _ State, slot int) {
			ok = ok && slotOf[b] == slot
		})
		return ok && len(seen) == len(slotOf) && c.Resident() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if st, s := MustNew(16*64, 4, 64).ProbeSlot(0); st != Invalid || s != -1 {
		t.Errorf("ProbeSlot of a cold cache = %v, %d; want I, -1", st, s)
	}
}

// TestFullSetRefillsFreedWay pins the per-set valid count: once a line
// of a full set is invalidated, the next fill of that set takes the
// freed way instead of evicting, and fills after it evict again.
func TestFullSetRefillsFreedWay(t *testing.T) {
	c := mk(t, 4*64, 4) // 1 set x 4 ways
	for i := 0; i < 4; i++ {
		c.Insert(amath.Addr(i*64), Exclusive)
	}
	_, freed := c.ProbeSlot(2 * 64)
	c.Invalidate(2 * 64)
	if v := c.Insert(4*64, Exclusive); v.Occurred || v.Slot != freed {
		t.Errorf("fill after invalidate = %+v, want the freed slot %d without eviction", v, freed)
	}
	if v := c.Insert(5*64, Exclusive); !v.Occurred {
		t.Error("fill of a full set did not evict")
	}
	if c.Resident() != 4 || c.Stats().Evictions != 1 {
		t.Errorf("resident %d evictions %d, want 4 and 1", c.Resident(), c.Stats().Evictions)
	}
}

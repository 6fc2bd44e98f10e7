package machine

// dirTable is the per-bank MESI directory: an open-addressed hash table
// (linear probing, backward-shift deletion) mapping block numbers to
// *value* dirEntries. It replaces the earlier map[uint64]*dirEntry, which
// paid one heap allocation per tracked block plus a double hash on every
// probe-then-insert; the LLC eviction path delete+refill churn made those
// allocations a steady per-access cost under capacity pressure.
//
// Pointer discipline: get and ref return pointers into the slot array,
// which stay valid only until the next ref or del on the same table —
// growth reallocates the array and backward-shift deletion moves slots.
// No caller may hold an entry pointer across a directory mutation.
type dirTable struct {
	slots []dirSlot
	shift uint // 64 - log2(len(slots)), for Fibonacci hashing
	used  int
}

type dirSlot struct {
	block uint64
	live  bool
	e     dirEntry
}

// dirMinSlots is the initial table size; banks grow past it quickly, so
// it only bounds the cost of the many short-lived machines tests build.
const dirMinSlots = 64

// dirHome returns the preferred slot of a block number: Fibonacci
// multiplicative hashing, whose high bits spread the near-sequential
// block numbers a streaming workload produces.
func (d *dirTable) dirHome(block uint64) uint64 {
	return (block * 0x9E3779B97F4A7C15) >> d.shift
}

// probe returns the slot holding block, or the empty slot where it would
// be inserted.
func (d *dirTable) probe(block uint64) (idx uint64, found bool) {
	mask := uint64(len(d.slots) - 1)
	i := d.dirHome(block)
	for {
		s := &d.slots[i]
		if !s.live {
			return i, false
		}
		if s.block == block {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// get returns the entry for block, or nil if the block is untracked.
//
//tdnuca:hotpath
func (d *dirTable) get(block uint64) *dirEntry {
	if len(d.slots) == 0 {
		return nil
	}
	if i, found := d.probe(block); found {
		return &d.slots[i].e
	}
	return nil
}

// ref returns the entry for block, creating it (owner -1, no sharers)
// if the block is untracked — the probe-then-insert pattern of the fill
// and writeback paths, done with a single hash and probe sequence.
//
//tdnuca:hotpath
func (d *dirTable) ref(block uint64) *dirEntry {
	if len(d.slots) == 0 {
		d.grow()
	}
	i, found := d.probe(block)
	if found {
		return &d.slots[i].e
	}
	// Grow at 3/4 load, before the insert, so probe chains stay short.
	if d.used+1 > len(d.slots)-len(d.slots)/4 {
		d.grow()
		i, _ = d.probe(block)
	}
	d.slots[i] = dirSlot{block: block, live: true, e: dirEntry{owner: -1}}
	d.used++
	return &d.slots[i].e
}

// del removes the block's entry if present, backward-shifting the
// following probe chain so no tombstones accumulate.
func (d *dirTable) del(block uint64) {
	if len(d.slots) == 0 {
		return
	}
	i, found := d.probe(block)
	if !found {
		return
	}
	d.used--
	mask := uint64(len(d.slots) - 1)
	j := i
	for {
		j = (j + 1) & mask
		s := &d.slots[j]
		if !s.live {
			break
		}
		// s may move into the hole at i only if i lies within its probe
		// chain, i.e. between its home slot and j (cyclically).
		if h := d.dirHome(s.block); (j-h)&mask >= (j-i)&mask {
			d.slots[i] = *s
			i = j
		}
	}
	d.slots[i] = dirSlot{}
}

// grow doubles the open-addressed table and rehashes the live slots.
//
//tdnuca:allow(alloc) geometric growth: O(log n) allocations over a whole run, amortized to zero per access
func (d *dirTable) grow() {
	old := d.slots
	n := 2 * len(old)
	if n < dirMinSlots {
		n = dirMinSlots
	}
	d.slots = make([]dirSlot, n)
	d.shift = 64 - uint(log2u(uint64(n)))
	for i := range old {
		if !old[i].live {
			continue
		}
		j, _ := d.probe(old[i].block)
		d.slots[j] = old[i]
	}
}

// log2u is log2 for a power-of-two uint64 (table sizes only).
func log2u(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

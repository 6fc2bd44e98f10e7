package harness

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"tdnuca/internal/sim"
)

// Result digests are stable FNV-1a fingerprints over every integer
// counter and string a run produced: cycles, the full machine.Metrics
// counter set, NoC byte-hops and message counts, TLB and RRT statistics,
// the TD classification and manager counters, and any coherence
// violations. Two runs digest equally iff the simulation behaved
// identically — which makes the digest the unit of three correctness
// layers: golden regression files under testdata/, the
// parallel-vs-sequential equivalence test, and the same-seed determinism
// test.
//
// Float-valued fields (energy, average task size, average RRT occupancy)
// are deliberately excluded: Go permits floating-point contraction (FMA)
// to differ across architectures, and every float in Result is derived
// from counters the digest already covers.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64 is an incremental FNV-1a hash.
type fnv64 uint64

func newFNV() fnv64 { return fnvOffset64 }

func (h *fnv64) byte(b byte) {
	*h = (*h ^ fnv64(b)) * fnvPrime64
}

func (h *fnv64) u64(x uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(x >> (8 * i)))
	}
}

func (h *fnv64) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// hashValue folds a value into the hash: integers and strings directly,
// structs field by field in declaration order, slices element by element
// with a length prefix. Floats are skipped (see the package comment on
// cross-architecture FMA contraction); adding a counter field to any
// hashed struct automatically changes future digests, which is exactly
// the drift-visibility the golden tests exist for. A field tagged
// `digest:"-"` is excluded — the escape hatch for fields that are
// themselves digests (Result.AccessDigest), whose addition must not
// move goldens pinned before they existed.
func hashValue(h *fnv64, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		st := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if st.Field(i).Tag.Get("digest") == "-" {
				continue
			}
			hashValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		h.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.String:
		h.str(v.String())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h.u64(v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.u64(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			h.byte(1)
		} else {
			h.byte(0)
		}
	case reflect.Float32, reflect.Float64:
		// Skipped: derived from hashed counters, not bit-stable across
		// architectures.
	default:
		panic(fmt.Sprintf("harness: cannot digest field of kind %v", v.Kind()))
	}
}

// Digest returns the run's behavioral fingerprint. Any change to a
// counter, classification, violation message — or the addition of a new
// counter field — changes the digest. A faulted run (Faults != nil)
// digests its fault counters too, under the faultedDigest layout.
func (r Result) Digest() uint64 {
	v := reflect.ValueOf(r)
	if r.Faults != nil {
		v = reflect.ValueOf(faultedDigest{r, *r.Faults})
	}
	h := newFNV()
	hashValue(&h, v)
	return uint64(h)
}

// DigestEntry is one (benchmark, policy) line of a SuiteDigest. Cycles
// are duplicated outside the hash so a golden-file diff immediately shows
// whether performance (and not just some counter) drifted.
type DigestEntry struct {
	Benchmark string
	Policy    PolicyKind
	Cycles    sim.Cycles
	Digest    uint64
}

// SuiteDigest is the canonical fingerprint of a whole Suite: one entry
// per (benchmark, policy) in sorted order, plus a combined hash over the
// entries. Two Suites digest equally iff every run behaved identically.
type SuiteDigest struct {
	Entries []DigestEntry
	Hash    uint64
}

// DigestSuite fingerprints a Suite. Benchmarks and policies are ordered
// lexicographically — canonical regardless of map iteration or of the
// order runs completed in.
func DigestSuite(s Suite) SuiteDigest {
	var d SuiteDigest
	benches := make([]string, 0, len(s))
	for b := range s {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	for _, b := range benches {
		kinds := make([]string, 0, len(s[b]))
		for k := range s[b] {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			r := s[b][PolicyKind(k)]
			d.Entries = append(d.Entries, DigestEntry{
				Benchmark: b,
				Policy:    PolicyKind(k),
				Cycles:    r.Cycles,
				Digest:    r.Digest(),
			})
		}
	}
	h := newFNV()
	for _, e := range d.Entries {
		h.str(e.Benchmark)
		h.str(string(e.Policy))
		h.u64(uint64(e.Cycles))
		h.u64(e.Digest)
	}
	d.Hash = uint64(h)
	return d
}

// Equal reports whether two suite digests are identical.
func (d SuiteDigest) Equal(o SuiteDigest) bool {
	if d.Hash != o.Hash || len(d.Entries) != len(o.Entries) {
		return false
	}
	for i := range d.Entries {
		if d.Entries[i] != o.Entries[i] {
			return false
		}
	}
	return true
}

// String renders the digest in the golden-file format: one tab-separated
// line per entry plus the combined suite hash.
func (d SuiteDigest) String() string {
	var b strings.Builder
	for _, e := range d.Entries {
		fmt.Fprintf(&b, "%s\t%s\tcycles=%d\tdigest=%016x\n",
			e.Benchmark, e.Policy, uint64(e.Cycles), e.Digest)
	}
	fmt.Fprintf(&b, "suite\tdigest=%016x\n", d.Hash)
	return b.String()
}

package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestJobIDsPinned pins the content address of representative specs to
// literal IDs. The cache on disk is keyed by these IDs, so a change to
// JobSpec, normalize or Address that moves any of them silently orphans
// every cached payload; bumping addressSchema is the deliberate way to
// do that.
func TestJobIDsPinned(t *testing.T) {
	for _, tc := range []struct{ body, id string }{
		{`{"bench":"LU","policy":"tdnuca"}`, "4dc9c29065079563"},
		{`{"bench":"LU","policy":"TD-NUCA","mesh":"4x4","factor":0.03125,"seed":1,"frag_every":16}`, "4dc9c29065079563"},
		{`{"bench":"MD5","policy":"r-nuca","factor":0.0078125}`, "d90584172f8e3362"},
		{`{"bench":"Kmeans","policy":"bypass","mesh":"8x8","factor":0.0078125,"seed":7}`, "a4f9e964f836d022"},
		{`{"bench":"Gauss","policy":"tdnuca","factor":0.0078125,"faults":"bank=3@1000"}`, "5c8479fcc324cf8e"},
		{`{"bench":"Jacobi","policy":"snuca","factor":0.0078125,"trace":true}`, "7b25add6f7393930"},
		{`{"bench":"Histo","policy":"noisa","factor":0.0078125,"frag_every":-1}`, "9178545c3d95bf82"},
		{`{"bench":"Histo","policy":"noisa","factor":0.0078125,"frag_every":-1,"priority":5}`, "9178545c3d95bf82"},
		{`{"bench":"gen:seed=3,depth=4,width=8","policy":"S-NUCA","factor":0.0078125,"max_cycles":1000000000}`, "7caa1eefcbb0f89a"},
		{`{"bench":"Redblack","policy":"td-bypass","factor":0.0078125,"frag_every":4,"seed":42}`, "39fd9d1a1be3463e"},
	} {
		spec, err := decodeSpec(strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if err := spec.normalize(); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if err := spec.validate(); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if got := spec.ID(); got != tc.id {
			t.Errorf("%s: id %s, want %s", tc.body, got, tc.id)
		}
	}
}

// FuzzJobSpec fuzzes the submission boundary: decode (strict, as the
// HTTP handler does), normalize, address and validate. Nothing may
// panic; a normalized spec must normalize to itself; and the spec the
// service echoes back (StatusView.Spec, ResultPayload.Spec) must address
// the same job when a client resubmits it.
func FuzzJobSpec(f *testing.F) {
	f.Add(`{"bench":"Histo","policy":"noisa","factor":0.0078125,"frag_every":-1}`)
	f.Add(`{"bench":"LU","policy":"tdnuca"}`)
	f.Add(`{"bench":"Kmeans","policy":"bypass","mesh":"8x8","seed":7,"priority":3}`)
	f.Add(`{"bench":"Gauss","policy":"rnuca","faults":"bank=3@1000","max_cycles":5}`)
	f.Add(`{"bench":"gen:seed=3,depth=4,width=8","policy":"snuca","frag_every":4}`)
	f.Add(`{"bench":"MD5","policy":"snuca","factor":-1}`)
	f.Add(`{"bench":"MD5","policy":"snuca","workers":2}`)
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeSpec(strings.NewReader(body))
		if err != nil {
			return
		}
		if err := spec.normalize(); err != nil {
			return
		}
		id := spec.ID()
		_ = spec.validate()

		again := spec
		if err := again.normalize(); err != nil {
			t.Fatalf("normalized spec %+v fails to normalize again: %v", spec, err)
		}
		if again != spec {
			t.Fatalf("normalize is not idempotent: %+v -> %+v", spec, again)
		}

		echo, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("normalized spec %+v does not marshal: %v", spec, err)
		}
		back, err := decodeSpec(strings.NewReader(string(echo)))
		if err != nil {
			t.Fatalf("echoed spec %s does not decode: %v", echo, err)
		}
		if err := back.normalize(); err != nil {
			t.Fatalf("echoed spec %s does not normalize: %v", echo, err)
		}
		if back.ID() != id {
			t.Fatalf("echoed spec %s addresses %s, want %s", echo, back.ID(), id)
		}
	})
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Integrity regression tests for the disk cache: a corrupted payload —
// truncated by a crash, bit-flipped by the medium — must be quarantined
// and re-simulated, never served. This pins the previously unverified
// os.ReadFile path that would have returned a torn payload verbatim.

func mustPut(t *testing.T, c *cache, id string, payload []byte) {
	t.Helper()
	if err := c.put(id, payload); err != nil {
		t.Fatalf("put %s: %v", id, err)
	}
}

// freshDiskCache builds a cache over dir, puts the payloads, then
// returns a *second* cache over the same dir with a cold memory tier,
// so every get exercises the disk read+verify path.
func freshDiskCache(t *testing.T, dir string, payloads map[string][]byte) *cache {
	t.Helper()
	c1, err := newCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(payloads))
	for id := range payloads {
		ids = append(ids, id)
	}
	// Sorted so the test is deterministic (maprange discipline).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		mustPut(t, c1, id, payloads[id])
	}
	c2, err := newCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	return c2
}

func TestCacheCorruptTruncatedQuarantined(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"digest":"00DEADBEEF","result":{"cycles":12345}}`)
	c := freshDiskCache(t, dir, map[string][]byte{"aaaa000000000001": payload})

	// Truncate the stored file: keep the header and half the payload, as
	// a crash mid-append (or a torn sector) would.
	path := filepath.Join(dir, "aaaa000000000001"+payloadExt)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-len(payload)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := c.get("aaaa000000000001"); ok {
		t.Fatalf("truncated payload served: %q", got)
	}
	if _, err := os.Stat(path + corruptExt); err != nil {
		t.Errorf("truncated file not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("truncated file still addressable: %v", err)
	}
	if q := c.quarantined.Load(); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	// The address is a miss now: a re-put (the re-simulation's write)
	// restores it, and the restored entry verifies.
	mustPut(t, c, "aaaa000000000001", payload)
	c2, err := newCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.get("aaaa000000000001"); !ok || !bytes.Equal(got, payload) {
		t.Errorf("restored entry: ok=%v payload=%q", ok, got)
	}
}

func TestCacheCorruptBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"digest":"00CAFEF00D","result":{"cycles":54321}}`)
	c := freshDiskCache(t, dir, map[string][]byte{"bbbb000000000002": payload})

	path := filepath.Join(dir, "bbbb000000000002"+payloadExt)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x40 // flip one bit inside the payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := c.get("bbbb000000000002"); ok {
		t.Fatalf("bit-flipped payload served: %q", got)
	}
	if _, err := os.Stat(path + corruptExt); err != nil {
		t.Errorf("bit-flipped file not quarantined: %v", err)
	}
	if q := c.quarantined.Load(); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
}

func TestCacheHeaderTamperQuarantined(t *testing.T) {
	for name, mutate := range map[string]func([]byte) []byte{
		"zero-length":   func([]byte) []byte { return nil },
		"no-header":     func([]byte) []byte { return []byte("not a framed payload at all") },
		"wrong-schema":  func(b []byte) []byte { return append([]byte("bogus/v9 0000000000000000 3\nabc"), nil...) },
		"length-lies":   func(b []byte) []byte { return bytes.Replace(b, []byte(" 47\n"), []byte(" 9999\n"), 1) },
		"extra-garbage": func(b []byte) []byte { return append(b, []byte("trailing junk")...) },
		"header-trailing-text": func(b []byte) []byte {
			return bytes.Replace(b, []byte(" 47\n"), []byte(" 47 junk\n"), 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			sub := t.TempDir()
			payload := []byte(`{"digest":"00ABCD","result":{"cycles":7}}______`) // 47 bytes
			if len(payload) != 47 {
				t.Fatalf("fixture payload is %d bytes, want 47", len(payload))
			}
			c := freshDiskCache(t, sub, map[string][]byte{"cccc000000000003": payload})
			path := filepath.Join(sub, "cccc000000000003"+payloadExt)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.get("cccc000000000003"); ok {
				t.Fatalf("tampered payload served: %q", got)
			}
			if _, err := os.Stat(path + corruptExt); err != nil {
				t.Errorf("tampered file not quarantined: %v", err)
			}
		})
	}
}

func TestCacheIndexRebuiltOnStartup(t *testing.T) {
	dir := t.TempDir()
	payloads := map[string][]byte{
		"dddd000000000004": []byte(`{"cycles":1}`),
		"dddd000000000005": []byte(`{"cycles":2}`),
	}
	c1, err := newCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c1, "dddd000000000004", payloads["dddd000000000004"])
	mustPut(t, c1, "dddd000000000005", payloads["dddd000000000005"])
	// Crash simulation: no flush. Delete any index the startup rebuild
	// already wrote, plant a stale temp file, and truncate one payload.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dddd000000000009"+payloadExt+".tmp42"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	truncPath := filepath.Join(dir, "dddd000000000005"+payloadExt)
	if err := os.WriteFile(truncPath, []byte(cacheSchema+" 0000000000000000 99\nshort"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := newCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatalf("startup did not rebuild index.json: %v", err)
	}
	var idx cacheIndex
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Schema != cacheSchema || len(idx.Entries) != 1 || idx.Entries[0].ID != "dddd000000000004" {
		t.Errorf("rebuilt index = %+v, want exactly the one intact entry", idx)
	}
	if _, err := os.Stat(truncPath + corruptExt); err != nil {
		t.Errorf("startup scan did not quarantine the truncated entry: %v", err)
	}
	if q := c2.quarantined.Load(); q != 1 {
		t.Errorf("startup quarantined = %d, want 1", q)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil || len(ents) != 0 {
		t.Errorf("temp leftovers not swept: %v (%v)", ents, err)
	}
}

// TestCacheFlushIncludesEvicted pins the satellite fix: the manifest is
// derived from the disk directory, so payloads evicted from the memory
// LRU but still on disk do not vanish from it.
func TestCacheFlushIncludesEvicted(t *testing.T) {
	dir := t.TempDir()
	c, err := newCache(1, dir) // memory holds one entry; disk holds all
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"eeee000000000006", "eeee000000000007", "eeee000000000008"}
	for i, id := range ids {
		mustPut(t, c, id, []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	_, _, evictions, _, resident := c.counters()
	if evictions != 2 || resident != 1 {
		t.Fatalf("evictions=%d resident=%d, want 2/1", evictions, resident)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var idx cacheIndex
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != len(ids) {
		t.Fatalf("flushed index has %d entries, want %d (evicted entries vanished)", len(idx.Entries), len(ids))
	}
	for i, id := range ids {
		if idx.Entries[i].ID != id {
			t.Errorf("entry %d = %s, want %s (sorted)", i, idx.Entries[i].ID, id)
		}
	}
	// And every evicted entry is still a disk hit.
	for _, id := range ids {
		if _, ok := c.get(id); !ok {
			t.Errorf("entry %s lost after eviction", id)
		}
	}
}

// TestCacheConcurrentGetPut hammers the memory+disk tiers from many
// goroutines; under -race this is the proof that moving disk I/O off
// the LRU mutex introduced no unsynchronized sharing.
func TestCacheConcurrentGetPut(t *testing.T) {
	dir := t.TempDir()
	c, err := newCache(8, dir) // smaller than the working set: evictions + disk refills
	if err != nil {
		t.Fatal(err)
	}
	const ids = 32
	payload := func(i int) []byte { return []byte(fmt.Sprintf(`{"payload":%d}`, i)) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				i := (g*7 + round*13) % ids
				id := fmt.Sprintf("ffff%012x", i)
				if b, ok := c.get(id); ok {
					if !bytes.Equal(b, payload(i)) {
						t.Errorf("get %s = %q, want %q", id, b, payload(i))
						return
					}
				} else if err := c.put(id, payload(i)); err != nil {
					t.Errorf("put %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if q := c.quarantined.Load(); q != 0 {
		t.Errorf("spurious quarantines under concurrency: %d", q)
	}
}

// TestCorruptEntryNeverServedEndToEnd is the server-level regression:
// corrupt a payload on disk under a live cache dir, restart the server,
// resubmit — the job must be re-simulated (one new completion, correct
// digest), the corrupt bytes must never reach the client, and the stats
// must report the quarantine. A second entry cached alongside it but not
// damaged must still be a disk hit on the restarted server.
func TestCorruptEntryNeverServedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Bench: "MD5", Policy: "snuca", Factor: testFactor}
	healthy := JobSpec{Bench: "Jacobi", Policy: "tdnuca", Factor: testFactor}

	s1, ts1 := startServer(t, Config{Workers: 1, CacheDir: dir})
	_, v1, apiErr := submit(t, ts1, spec)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	streamUntilTerminal(t, ts1, v1.ID)
	_, payload1 := getResult(t, ts1, v1.ID)
	_, vh, apiErr := submit(t, ts1, healthy)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	streamUntilTerminal(t, ts1, vh.ID)
	_, healthyPayload := getResult(t, ts1, vh.ID)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Bit-flip the stored payload's digest field region.
	path := filepath.Join(dir, v1.ID+payloadExt)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := startServer(t, Config{Workers: 1, CacheDir: dir})
	code, v2, apiErr := submit(t, ts2, spec)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if code == http.StatusOK && v2.CacheHit {
		t.Fatal("corrupt disk entry served as a cache hit")
	}
	streamUntilTerminal(t, ts2, v2.ID)
	_, payload2 := getResult(t, ts2, v2.ID)
	if !bytes.Equal(payload1, payload2) {
		t.Error("re-simulated payload differs from the original run")
	}
	code, vh2, apiErr := submit(t, ts2, healthy)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if code != http.StatusOK || !vh2.CacheHit {
		t.Errorf("undamaged entry not a disk hit after restart: code=%d view=%+v", code, vh2)
	}
	if _, b := getResult(t, ts2, vh2.ID); !bytes.Equal(b, healthyPayload) {
		t.Error("undamaged entry served different bytes after restart")
	}
	snap := s2.Snapshot()
	if snap.Completed != 1 {
		t.Errorf("completed = %d, want exactly 1 re-simulation (the damaged entry only)", snap.Completed)
	}
	if snap.CacheQuarantined < 1 {
		t.Errorf("cache_quarantined = %d, want >= 1", snap.CacheQuarantined)
	}
	if _, err := os.Stat(path + corruptExt); err != nil {
		t.Errorf("corrupt payload not quarantined on disk: %v", err)
	}
	// The repaired entry survives another restart.
	_, ts3 := startServer(t, Config{Workers: 1, CacheDir: dir})
	code, v3, apiErr := submit(t, ts3, spec)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if code != http.StatusOK || !v3.CacheHit {
		t.Errorf("repaired entry not a disk hit after restart: code=%d view=%+v", code, v3)
	}
}

func TestDecodePayloadRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte(""), []byte("x"), []byte(`{"a":1}`), bytes.Repeat([]byte("\n\x00\xff"), 1000)} {
		got, err := decodePayload(encodePayload(payload))
		if err != nil {
			t.Fatalf("round trip %q: %v", payload, err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("round trip %q = %q", payload, got)
		}
	}
	if !strings.HasPrefix(string(encodePayload([]byte("abc"))), cacheSchema+" ") {
		t.Error("encoded payload does not lead with the schema header")
	}
}

// FuzzDecodePayload fuzzes the disk-cache header parser, which reads
// whatever a crash or a bad medium left on disk: any input may be
// rejected but none may panic, an accepted input must be exactly the
// framing of what it decodes to (so no header variant slips through),
// and any payload must survive its own framing byte for byte.
func FuzzDecodePayload(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("no newline"))
	f.Add(encodePayload([]byte(`{"a":1}`)))
	f.Add([]byte(cacheSchema + " 0000000000000000 -1\n"))
	f.Add([]byte(cacheSchema + " zz 99999999999999999999\nx"))
	f.Add(bytes.Repeat([]byte("\n\x00\xff"), 100))
	f.Add(bytes.Replace(encodePayload([]byte("abc")), []byte(" 3\n"), []byte(" 3 junk\n"), 1))
	f.Add(bytes.Replace(encodePayload([]byte("abc")), []byte(" 3\n"), []byte(" +3\n"), 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := decodePayload(b); err == nil && !bytes.Equal(encodePayload(p), b) {
			t.Fatalf("accepted %q, which re-encodes as %q", b, encodePayload(p))
		}
		got, err := decodePayload(encodePayload(b))
		if err != nil {
			t.Fatalf("round trip %q: %v", b, err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("round trip %q = %q", b, got)
		}
	})
}

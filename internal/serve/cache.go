package serve

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// cache is the content-addressed result store: an in-memory LRU over
// payload bytes, optionally backed by an on-disk directory so results
// survive restarts. Keys are JobSpec.ID strings (%016x content
// addresses), values are the exact response bytes — a hit is served
// byte-identical to the original run's response.
//
// The disk tier is self-verifying: every payload file carries a header
// with the FNV-1a checksum and length of its payload, checked on every
// read. A file that fails the check — truncated by a crash, bit-flipped
// by the medium — is quarantined (renamed *.corrupt) and reported as a
// miss, so the job is re-simulated instead of a corrupt result being
// served under a valid content address. Serving wrong bytes verbatim
// would silently break the repo's determinism contract; a re-simulation
// merely costs time.
//
// Locking: c.mu guards only the in-memory LRU and its counters. All
// disk I/O happens outside it, so a slow disk never blocks concurrent
// memory hits (get) or admissions (put).
type cache struct {
	mu   sync.Mutex
	cap  int
	ll   *list.List               // front = most recently used
	byID map[string]*list.Element // id -> element holding *cacheEntry

	dir string // "" = memory only

	hits, misses, evictions uint64
	quarantined             atomic.Uint64
}

type cacheEntry struct {
	id      string
	payload []byte
}

// cacheSchema versions the disk format: the payload-file header and the
// index manifest. Files with an unknown schema are quarantined, so a
// format change can never serve stale bytes.
const cacheSchema = "tdnuca-cache/v1"

// payloadExt is the on-disk payload file suffix. The file is a one-line
// header ("tdnuca-cache/v1 <checksum> <bytes>\n") followed by the raw
// payload, so it is no longer plain JSON — hence not ".json".
const payloadExt = ".payload"

// corruptExt is appended to a quarantined file's name: the bytes are
// kept for forensics but can never match a payload lookup again.
const corruptExt = ".corrupt"

func newCache(capacity int, dir string) (*cache, error) {
	if capacity <= 0 {
		capacity = 128
	}
	c := &cache{cap: capacity, ll: list.New(), byID: make(map[string]*list.Element), dir: dir}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
		// Crash recovery: rebuild the manifest from what is actually on
		// disk. A crash before drain never flushed index.json; the scan
		// (which also sweeps temp-file leftovers and quarantines files
		// that fail verification) makes the directory itself the source
		// of truth, so nothing durable is lost.
		if err := c.rebuildIndex(); err != nil {
			return nil, fmt.Errorf("serve: cache index rebuild: %w", err)
		}
	}
	return c, nil
}

// get returns the cached payload for id, consulting memory first and
// then disk (promoting a verified disk hit into the LRU). The returned
// slice is shared — callers must not mutate it. The disk read and its
// verification run outside the LRU mutex.
func (c *cache) get(id string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.byID[id]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		payload := el.Value.(*cacheEntry).payload
		c.mu.Unlock()
		return payload, true
	}
	if c.dir == "" {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()

	b, ok := c.readDisk(id)

	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		return nil, false
	}
	if el, raced := c.byID[id]; raced {
		// A concurrent get (or put) installed the entry while we read
		// disk; determinism makes the bytes identical, keep the resident
		// copy.
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).payload, true
	}
	c.insertLocked(id, b)
	c.hits++
	return b, true
}

// put stores a payload under its content address, writing through to
// disk when configured. The in-memory insert happens under the mutex;
// the disk write does not, so a slow disk cannot block concurrent gets.
// Disk write failures are reported but do not invalidate the in-memory
// entry.
func (c *cache) put(id string, payload []byte) error {
	c.mu.Lock()
	if el, ok := c.byID[id]; ok {
		// Determinism makes re-puts byte-identical; keep the first.
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return nil
	}
	c.insertLocked(id, payload)
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	return writeAtomic(c.path(id), encodePayload(payload))
}

func (c *cache) insertLocked(id string, payload []byte) {
	c.byID[id] = c.ll.PushFront(&cacheEntry{id: id, payload: payload})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.byID, el.Value.(*cacheEntry).id)
		c.evictions++
	}
}

func (c *cache) path(id string) string { return filepath.Join(c.dir, id+payloadExt) }

// payloadSum is the per-entry checksum: the repo's FNV-1a over the raw
// payload bytes, rendered %016x everywhere it appears (header, index).
func payloadSum(payload []byte) uint64 {
	h := fnv64(fnvOffset64)
	h.bytes(payload)
	return uint64(h)
}

// encodePayload frames a payload for disk: a one-line header carrying
// the schema, checksum and byte count, then the raw payload verbatim.
func encodePayload(payload []byte) []byte {
	header := payloadHeader(payload)
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// payloadHeader is the header line encodePayload writes for a payload.
func payloadHeader(payload []byte) string {
	return fmt.Sprintf("%s %016x %d\n", cacheSchema, payloadSum(payload), len(payload))
}

// decodePayload parses and verifies a framed payload file: everything
// after the first newline is the payload, and the header line must be
// byte for byte the one encodePayload writes for it. Any deviation —
// unknown schema, short or long body, checksum mismatch, a reformatted
// or extended header — is corruption.
func decodePayload(b []byte) ([]byte, error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	header, payload := b[:nl+1], b[nl+1:]
	if want := payloadHeader(payload); string(header) != want {
		return nil, fmt.Errorf("header %q, want %q for the %d-byte payload (truncated, bit rot or tampering?)",
			header[:nl], want[:len(want)-1], len(payload))
	}
	return payload, nil
}

// readDisk loads and verifies one payload file. A missing file is a
// plain miss; a file that fails verification is quarantined and then a
// miss — the caller re-simulates rather than serving corrupt bytes.
// Runs without holding c.mu.
func (c *cache) readDisk(id string) ([]byte, bool) {
	path := c.path(id)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	payload, err := decodePayload(b)
	if err != nil {
		c.quarantine(path)
		return nil, false
	}
	return payload, true
}

// quarantine renames a corrupt payload file out of the lookup namespace.
// Renaming (not deleting) keeps the bytes for a post-mortem; the rename
// target overwrites any previous quarantine of the same id. A lost race
// (another reader already renamed it) counts once per observer — the
// counter tracks detections, which is what the integrity tests assert
// to be > 0, and concurrent detections of one file are deterministic
// re-reads of the same corrupt bytes.
func (c *cache) quarantine(path string) {
	if err := os.Rename(path, path+corruptExt); err == nil {
		c.quarantined.Add(1)
	}
}

// cacheIndex is the flushed manifest: which addresses the disk store
// holds, how large each payload is, and its checksum — written on
// startup (rebuild) and drain so an operator can audit the cache
// without parsing payloads.
type cacheIndex struct {
	Schema  string            `json:"schema"`
	Entries []cacheIndexEntry `json:"entries"`
}

type cacheIndexEntry struct {
	ID    string `json:"id"`
	Bytes int    `json:"bytes"`
	Sum   string `json:"sum"`
}

// scanDisk walks the cache directory, sweeps temp-file leftovers from
// crashed writes, verifies every payload file (quarantining failures)
// and returns the surviving entries sorted by id. Runs without c.mu:
// it touches only the disk tier.
func (c *cache) scanDisk() ([]cacheIndexEntry, error) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var out []cacheIndexEntry
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.Contains(name, ".tmp") {
			// A crash between temp write and rename left this behind; it
			// was never addressable, so removing it loses nothing.
			_ = os.Remove(filepath.Join(c.dir, name))
			continue
		}
		id, ok := strings.CutSuffix(name, payloadExt)
		if !ok {
			continue // index.json, *.corrupt, foreign files
		}
		b, err := os.ReadFile(filepath.Join(c.dir, name))
		if err != nil {
			continue
		}
		payload, err := decodePayload(b)
		if err != nil {
			c.quarantine(filepath.Join(c.dir, name))
			continue
		}
		out = append(out, cacheIndexEntry{ID: id, Bytes: len(payload), Sum: fmt.Sprintf("%016x", payloadSum(payload))})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, nil
}

// writeIndex scans the directory and writes the manifest. Deriving the
// index from disk — never from the in-memory LRU — means payloads
// evicted from memory but still on disk stay in the manifest, and a
// manifest is exactly what a fresh process would rebuild.
func (c *cache) writeIndex() error {
	entries, err := c.scanDisk()
	if err != nil {
		return err
	}
	idx := cacheIndex{Schema: cacheSchema, Entries: entries}
	b, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(c.dir, "index.json"), append(b, '\n'))
}

// rebuildIndex is the startup pass over the disk tier.
func (c *cache) rebuildIndex() error { return c.writeIndex() }

// flush writes the cache index to disk (a no-op for memory-only
// caches). Entries are sorted by id so the manifest is deterministic.
func (c *cache) flush() error {
	if c.dir == "" {
		return nil
	}
	return c.writeIndex()
}

// tmpSeq makes concurrent atomic writes collision-free: each writer
// gets its own temp name, so two writers racing on one id (possible
// after an eviction) can both rename safely — determinism makes their
// bytes identical, and rename is atomic either way.
var tmpSeq atomic.Uint64

// writeAtomic writes via an exclusive temp file + fsync + rename +
// directory fsync, so a crash at any point can never leave a torn,
// zero-length or unlinked payload behind a name a later index scan
// would trust. (The verification header would catch a torn payload
// anyway; the fsync discipline means it does not have to.)
func writeAtomic(path string, b []byte) error {
	tmp := fmt.Sprintf("%s.tmp%d", path, tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename into it is durable, not just
// ordered. Filesystems that cannot sync a directory handle get a
// best-effort pass: the rename itself was still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}

// counters returns a consistent snapshot of the cache statistics.
func (c *cache) counters() (hits, misses, evictions, quarantined uint64, resident int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.quarantined.Load(), c.ll.Len()
}

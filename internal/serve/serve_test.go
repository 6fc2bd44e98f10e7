package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tdnuca/internal/harness"
	"tdnuca/internal/trace"
	"tdnuca/internal/workloads"
)

// testFactor keeps simulations fast: the same 1/128 scale the harness
// unit tests use.
const testFactor = 1.0 / 128.0

// startServer builds and starts a server, returning it with its test
// HTTP frontend. Cleanup drains with a background context (tests that
// exercise Drain themselves call it first; Drain is idempotent).
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		cancel()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (int, StatusView, *APIError) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("submit %d: undecodable error body %s", resp.StatusCode, body)
		}
		eb.Error.HTTPStatus = resp.StatusCode
		return resp.StatusCode, StatusView{}, eb.Error
	}
	var view StatusView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("submit: undecodable body %s", body)
	}
	return resp.StatusCode, view, nil
}

// streamUntilTerminal follows the ndjson stream and returns every line,
// the terminal one last. This is also the test's synchronization
// primitive: the stream only ends once the job is terminal.
func streamUntilTerminal(t *testing.T, ts *httptest.Server, id string) []streamLine {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	last := lines[len(lines)-1]
	if last.Type != "result" && last.Type != "error" {
		t.Fatalf("stream ended on %q, want result or error", last.Type)
	}
	return lines
}

func getResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func TestSubmitStatusResultStreamRoundTrip(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	spec := JobSpec{Bench: "MD5", Policy: "snuca", Factor: testFactor}

	code, view, apiErr := submit(t, ts, spec)
	if apiErr != nil {
		t.Fatalf("submit: %v", apiErr)
	}
	if code != http.StatusAccepted || view.Status != StatusQueued && view.Status != StatusRunning && view.Status != StatusDone {
		t.Fatalf("submit: code=%d view=%+v", code, view)
	}
	if view.Spec.Policy != "S-NUCA" || view.Spec.Seed != 1 || view.Spec.Mesh != "4x4" {
		t.Errorf("spec not normalized in view: %+v", view.Spec)
	}

	lines := streamUntilTerminal(t, ts, view.ID)
	last := lines[len(lines)-1]
	if last.Type != "result" {
		t.Fatalf("stream terminal = %+v", last)
	}

	// Status now reports done; result returns the payload.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var after StatusView
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after.Status != StatusDone {
		t.Fatalf("status after stream = %s", after.Status)
	}

	code, payload := getResult(t, ts, view.ID)
	if code != http.StatusOK {
		t.Fatalf("result code = %d", code)
	}
	var p ResultPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}

	// The payload digest is the harness digest of a direct run.
	cfg := harness.DefaultConfig()
	cfg.Factor = workloads.Factor(testFactor)
	want, err := harness.Run(context.Background(), harness.Job{Bench: "MD5", Kind: harness.SNUCA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if wantDig := fmt.Sprintf("%016x", want.Digest()); p.Digest != wantDig {
		t.Errorf("payload digest %s != direct run digest %s", p.Digest, wantDig)
	}
	if p.Result.Cycles != want.Cycles {
		t.Errorf("payload cycles %d != direct %d", p.Result.Cycles, want.Cycles)
	}

	// The stream's result line carries the same bytes.
	if !bytes.Equal(last.Result, bytes.TrimRight(payload, "\n")) && !bytes.Equal(last.Result, payload) {
		t.Error("stream result line differs from the result endpoint payload")
	}

	// Unknown job: 404 with structured error.
	code, body := getResult(t, ts, "ffffffffffffffff")
	if code != http.StatusNotFound || !strings.Contains(string(body), "unknown_job") {
		t.Errorf("unknown job: code=%d body=%s", code, body)
	}
}

func TestCacheHitReturnsByteIdenticalPayload(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	spec := JobSpec{Bench: "Kmeans", Policy: "tdnuca", Factor: testFactor}

	_, first, apiErr := submit(t, ts, spec)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	streamUntilTerminal(t, ts, first.ID)
	_, firstPayload := getResult(t, ts, first.ID)

	// Resubmitting the identical job must not simulate again: 200, cache
	// hit, byte-identical payload.
	code, second, apiErr := submit(t, ts, spec)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if code != http.StatusOK || second.Status != StatusDone || !second.CacheHit {
		t.Fatalf("resubmit: code=%d view=%+v, want 200/done/cache_hit", code, second)
	}
	if second.ID != first.ID {
		t.Fatalf("resubmit got new id %s != %s", second.ID, first.ID)
	}
	_, secondPayload := getResult(t, ts, second.ID)
	if !bytes.Equal(firstPayload, secondPayload) {
		t.Error("cache hit payload differs from the original run's bytes")
	}

	// A different spelling of the same job coalesces to the same address.
	alias := JobSpec{Bench: "Kmeans", Policy: "TD-NUCA", Factor: testFactor, Seed: 1, Mesh: "4x4", Priority: 9}
	_, third, apiErr := submit(t, ts, alias)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if third.ID != first.ID || !third.CacheHit {
		t.Errorf("alias spelling: view=%+v, want same id + cache hit", third)
	}

	snap := s.Snapshot()
	if snap.Coalesced < 2 || snap.Completed != 1 {
		t.Errorf("stats = %+v, want >=2 coalesced and exactly 1 completed", snap)
	}
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Bench: "MD5", Policy: "rnuca", Factor: testFactor}

	_, ts1 := startServer(t, Config{Workers: 1, CacheDir: dir})
	_, v1, apiErr := submit(t, ts1, spec)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	streamUntilTerminal(t, ts1, v1.ID)
	_, payload1 := getResult(t, ts1, v1.ID)

	// A fresh server over the same cache dir serves the job without
	// simulating: done at submit, payload byte-identical, and the drain
	// of server 1 left a manifest behind.
	_, ts2 := startServer(t, Config{Workers: 1, CacheDir: dir})
	code, v2, apiErr := submit(t, ts2, spec)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if code != http.StatusOK || !v2.CacheHit {
		t.Fatalf("second server: code=%d view=%+v, want disk cache hit", code, v2)
	}
	_, payload2 := getResult(t, ts2, v2.ID)
	if !bytes.Equal(payload1, payload2) {
		t.Error("disk cache payload differs across restarts")
	}
	if _, err := os.Stat(filepath.Join(dir, v1.ID+payloadExt)); err != nil {
		t.Errorf("payload file missing: %v", err)
	}
}

func TestCacheIndexFlushedOnDrain(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, v, apiErr := submit(t, ts, JobSpec{Bench: "MD5", Policy: "snuca", Factor: testFactor})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	streamUntilTerminal(t, ts, v.ID)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatalf("index not flushed: %v", err)
	}
	var idx cacheIndex
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Schema != cacheSchema || len(idx.Entries) != 1 || idx.Entries[0].ID != v.ID {
		t.Errorf("index = %+v, want one entry for %s", idx, v.ID)
	}
	if idx.Entries[0].Sum == "" || idx.Entries[0].Bytes == 0 {
		t.Errorf("index entry missing checksum/size: %+v", idx.Entries[0])
	}
}

func TestBudgetErrorSurfacesStallKind(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	spec := JobSpec{Bench: "LU", Policy: "snuca", Factor: testFactor, MaxCycles: 1}
	_, view, apiErr := submit(t, ts, spec)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	lines := streamUntilTerminal(t, ts, view.ID)
	last := lines[len(lines)-1]
	if last.Type != "error" || last.Err == nil || last.Err.Kind != "budget" {
		t.Fatalf("stream terminal = %+v, want budget error", last)
	}
	code, body := getResult(t, ts, view.ID)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("result code = %d, want 422", code)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %s: %v", body, err)
	}
	if eb.Error.Kind != "budget" || !strings.Contains(eb.Error.Message, "budget") {
		t.Errorf("error body = %+v, want kind budget", eb.Error)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	for name, spec := range map[string]JobSpec{
		"bench":  {Bench: "nope", Policy: "snuca"},
		"policy": {Bench: "MD5", Policy: "bogus"},
		"mesh":   {Bench: "MD5", Policy: "snuca", Mesh: "4by4"},
		"faults": {Bench: "MD5", Policy: "snuca", Faults: "gibberish"},
		// Core -2 is out of range; it must not normalize to every core.
		"fault core": {Bench: "MD5", Policy: "tdnuca", Faults: "rrt=-2:4@0"},
		"combo":      {Bench: "MD5", Policy: "snuca", Faults: "bank=3@1000", Trace: true},
	} {
		code, _, apiErr := submit(t, ts, spec)
		if apiErr == nil || code != http.StatusBadRequest || apiErr.Kind != "invalid_spec" {
			t.Errorf("%s: code=%d err=%v, want 400 invalid_spec", name, code, apiErr)
		}
	}

	// Retired and misspelled options are rejected, never silently dropped.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"MD5","policy":"snuca","workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: code=%d, want 400", resp.StatusCode)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// Never started: nothing claims jobs, so the queue fills
	// deterministically.
	s, err := New(Config{Workers: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []JobSpec{
		{Bench: "MD5", Policy: "snuca", Factor: testFactor},
		{Bench: "LU", Policy: "snuca", Factor: testFactor},
		{Bench: "Kmeans", Policy: "snuca", Factor: testFactor},
	}
	for i, spec := range specs[:2] {
		if code, _, apiErr := submit(t, ts, spec); apiErr != nil || code != http.StatusAccepted {
			t.Fatalf("job %d: code=%d err=%v", i, code, apiErr)
		}
	}
	b, _ := json.Marshal(specs[2])
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: code = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != fmt.Sprintf("%d", RetryAfterSeconds) {
		t.Errorf("Retry-After = %q, want %d", ra, RetryAfterSeconds)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Kind != "queue_full" {
		t.Errorf("429 body error = %+v (%v), want queue_full", eb.Error, err)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	// Single never-started server: queue order is observable via pops.
	s, err := New(Config{Workers: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Bench: "MD5", Policy: "snuca", Priority: 0},
		{Bench: "LU", Policy: "snuca", Priority: 5},
		{Bench: "Kmeans", Policy: "snuca", Priority: 5},
		{Bench: "Histo", Policy: "snuca", Priority: -1},
	}
	for i := range specs {
		specs[i].Factor = testFactor
		if _, apiErr := s.Submit(specs[i]); apiErr != nil {
			t.Fatal(apiErr)
		}
	}
	var order []string
	s.mu.Lock()
	for len(s.queue) > 0 {
		order = append(order, s.queue.pop().spec.Bench)
	}
	s.mu.Unlock()
	want := []string{"LU", "Kmeans", "MD5", "Histo"} // priority desc, FIFO within
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("dequeue order %v, want %v", order, want)
	}
}

func TestDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{Workers: 2, QueueCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Load it up: more jobs than workers, so some are still queued when
	// the drain begins.
	var ids []string
	for _, bench := range workloads.Names() {
		_, v, apiErr := submit(t, ts, JobSpec{Bench: bench, Policy: "snuca", Factor: testFactor})
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		ids = append(ids, v.ID)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Every job is terminal: in-flight ones finished, queued ones were
	// canceled with the draining error.
	done, canceled := 0, 0
	for _, id := range ids {
		v, ok := s.Lookup(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch v.Status {
		case StatusDone:
			done++
		case StatusCanceled:
			canceled++
			if v.Error == nil || v.Error.Kind != "draining" {
				t.Errorf("canceled job error = %+v, want draining", v.Error)
			}
		default:
			t.Errorf("job %s still %s after drain", id, v.Status)
		}
	}
	if done == 0 {
		t.Error("drain finished no in-flight jobs")
	}
	if done+canceled != len(ids) {
		t.Errorf("done=%d canceled=%d, want %d total", done, canceled, len(ids))
	}

	// Admission is closed and health reports draining.
	if code, _, apiErr := submit(t, ts, JobSpec{Bench: "MD5", Policy: "rnuca", Factor: testFactor}); apiErr == nil || code != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: code=%d err=%v, want 503", code, apiErr)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}

	// Second drain is a no-op, and the pool is fully gone.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeak(t, before)
}

func TestDrainGraceExpiryCancelsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{Workers: 2, QueueCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	for _, bench := range workloads.Names() {
		if _, apiErr := s.Submit(JobSpec{Bench: bench, Policy: "tdnuca", Factor: testFactor}); apiErr != nil {
			t.Fatal(apiErr)
		}
	}
	// Zero grace: in-flight runs are canceled at their next dispatch
	// boundary rather than finishing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Queued != 0 || snap.Running != 0 {
		t.Errorf("after drain: %+v, want empty queue and no runners", snap)
	}
	if snap.Canceled == 0 {
		t.Error("zero-grace drain canceled nothing")
	}
	assertNoGoroutineLeak(t, before)
}

// TestSIGTERMDrain exercises the cmd/tdnuca-serve shutdown path
// end-to-end in-process: a real SIGTERM ends the admission context, the
// server stops admitting, and Drain completes without leaking
// goroutines.
func TestSIGTERMDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, v, apiErr := submit(t, ts, JobSpec{Bench: "MD5", Policy: "snuca", Factor: testFactor})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	streamUntilTerminal(t, ts, v.ID)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()

	// The signal closed admission (possibly racing one last accept);
	// drain completes and the pool exits.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _, apiErr := submit(t, ts, JobSpec{Bench: "LU", Policy: "snuca", Factor: testFactor}); apiErr == nil || code != http.StatusServiceUnavailable {
		t.Errorf("submit after SIGTERM: code=%d err=%v, want 503", code, apiErr)
	}

	// Tear the HTTP plumbing down before counting: the test server's
	// accept loop, idle keep-alive connections and the signal-notify
	// goroutine are all test scaffolding, not server pool state.
	ts.Close()
	stop()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	assertNoGoroutineLeak(t, before)
}

// TestConcurrentDuplicateSubmissions hammers one address from many
// clients: exactly one simulation runs, every caller lands on the same
// id, and all payloads are byte-identical.
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2, QueueCap: 64})
	spec := JobSpec{Bench: "Jacobi", Policy: "snuca", Factor: testFactor}
	const clients = 16
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var v StatusView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d got id %s, client 0 got %s", i, ids[i], ids[0])
		}
	}
	streamUntilTerminal(t, ts, ids[0])
	snap := s.Snapshot()
	if snap.Completed != 1 {
		t.Errorf("completed = %d, want exactly 1 simulation for %d clients", snap.Completed, clients)
	}
}

func TestTracedJobStreamsSamples(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	_, v, apiErr := submit(t, ts, JobSpec{Bench: "MD5", Policy: "snuca", Factor: testFactor, Trace: true})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	lines := streamUntilTerminal(t, ts, v.ID)
	samples := 0
	for _, l := range lines {
		if l.Type == "sample" {
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("traced job streamed no interval samples")
	}
	_, payload := getResult(t, ts, v.ID)
	var p ResultPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != samples {
		t.Errorf("stream emitted %d samples, payload has %d", samples, len(p.Samples))
	}

	// Tracing must not change the digest (observation only) — but it IS
	// part of the content address, so traced and untraced are distinct
	// cache entries.
	_, v2, apiErr := submit(t, ts, JobSpec{Bench: "MD5", Policy: "snuca", Factor: testFactor})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if v2.ID == v.ID {
		t.Fatal("traced and untraced jobs share a content address")
	}
	streamUntilTerminal(t, ts, v2.ID)
	_, payload2 := getResult(t, ts, v2.ID)
	var p2 ResultPayload
	if err := json.Unmarshal(payload2, &p2); err != nil {
		t.Fatal(err)
	}
	if p.Digest != p2.Digest {
		t.Errorf("traced digest %s != untraced %s", p.Digest, p2.Digest)
	}
}

func TestDegradedJobPayload(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	_, v, apiErr := submit(t, ts, JobSpec{Bench: "MD5", Policy: "tdnuca", Factor: testFactor, Faults: "bank=3@1000"})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	lines := streamUntilTerminal(t, ts, v.ID)
	if last := lines[len(lines)-1]; last.Type != "result" {
		t.Fatalf("degraded job terminal = %+v", last)
	}
	_, payload := getResult(t, ts, v.ID)
	var p ResultPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}
	if !p.Degraded || p.Faults == nil || p.Faults.BankRetirements != 1 {
		t.Errorf("degraded payload = degraded:%v faults:%+v, want 1 bank retirement", p.Degraded, p.Faults)
	}
}

// TestResultPayloadResultKeys pins the top-level keys of a payload's
// "result" object. harness.Result carries a faulted run's fault report
// and a traced run's trace data, both tagged out of its JSON form: the
// payload reports them in its own "faults" and "samples" fields, and the
// "result" object must match what earlier payloads in a disk cache hold.
func TestResultPayloadResultKeys(t *testing.T) {
	r := harness.Result{
		Faults: &harness.FaultReport{Scenario: "bank=3@1000"},
		Trace:  &trace.Data{Samples: []trace.IntervalSample{{}}},
	}
	b, err := json.Marshal(ResultPayload{Result: r})
	if err != nil {
		t.Fatal(err)
	}
	var top struct {
		Result map[string]json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range top.Result {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"AccessDigest", "AvgTaskKB", "Benchmark", "CreationCost", "Cycles",
		"DataMovement", "Energy", "FootprintBlocks", "HookCost", "ManagerStats",
		"Metrics", "NoCMessages", "Policy", "RNUCAPrivate", "RNUCAShared",
		"RNUCASharedRO", "RRTAvgOcc", "RRTMaxOcc", "RegisterFailures", "Stack",
		"TDClassification", "TLBHits", "TLBMisses", "Tasks", "Violations",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("result keys = %v\nwant %v", got, want)
	}
}

// assertNoGoroutineLeak waits for the goroutine count to return to its
// pre-test level (same discipline as the harness pool tests).
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	// Idle keep-alive connections hold goroutines on both sides of the
	// test server; they are HTTP plumbing, not server pool state.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after deadline", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

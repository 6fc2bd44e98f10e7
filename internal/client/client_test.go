package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tdnuca/internal/harness"
	"tdnuca/internal/serve"
	"tdnuca/internal/workloads"
)

const testFactor = 1.0 / 128.0

// recorder is the injected Sleep hook: it records every backoff wait
// and returns immediately, so retry tests take no wall time.
type recorder struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (r *recorder) sleep(ctx context.Context, d time.Duration) error {
	r.mu.Lock()
	r.waits = append(r.waits, d)
	r.mu.Unlock()
	return ctx.Err()
}

func (r *recorder) all() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.waits...)
}

// scriptRT fails the first n round trips with err (or a canned
// response), then delegates to next.
type scriptRT struct {
	mu   sync.Mutex
	n    int
	fail func(req *http.Request) (*http.Response, error)
	next http.RoundTripper
}

func (s *scriptRT) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	failing := s.n > 0
	if failing {
		s.n--
	}
	s.mu.Unlock()
	if failing {
		return s.fail(req)
	}
	return s.next.RoundTrip(req)
}

func startServer(tb testing.TB, cfg serve.Config) (*serve.Server, *httptest.Server) {
	tb.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			tb.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	delays := func(seed uint64) []time.Duration {
		c := New(Config{Seed: seed, BaseDelay: 4 * time.Millisecond, MaxDelay: 64 * time.Millisecond})
		var out []time.Duration
		for attempt := 0; attempt < 12; attempt++ {
			out = append(out, c.backoff(attempt))
		}
		return out
	}
	a, b := delays(5), delays(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: seed 5 drew %v then %v; jitter must be seeded", i, a[i], b[i])
		}
	}
	other := delays(6)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 5 and 6 drew identical jitter sequences")
	}
	// Capped exponential envelope: delay n is within [base<<n / 2, base<<n),
	// saturating at MaxDelay.
	for i, d := range a {
		env := 4 * time.Millisecond << i
		if env <= 0 || env > 64*time.Millisecond {
			env = 64 * time.Millisecond
		}
		if d < env/2 || d >= env {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", i, d, env/2, env)
		}
	}
}

func TestSubmitRetriesTransportErrors(t *testing.T) {
	_, ts := startServer(t, serve.Config{Workers: 1})
	rt := &scriptRT{n: 3, next: ts.Client().Transport, fail: func(*http.Request) (*http.Response, error) {
		return nil, errors.New("synthetic network error")
	}}
	rec := &recorder{}
	c := New(Config{BaseURL: ts.URL, HTTP: &http.Client{Transport: rt}, Sleep: rec.sleep, Seed: 9})

	view, err := c.Submit(context.Background(), serve.JobSpec{Bench: "MD5", Policy: "snuca", Factor: testFactor})
	if err != nil {
		t.Fatal(err)
	}
	if view.ID == "" {
		t.Fatal("no id")
	}
	if got := c.Counters(); got.Retries != 3 || got.Resubmits != 3 {
		t.Errorf("counters = %+v, want 3 retries/resubmits", got)
	}
	if len(rec.all()) != 3 {
		t.Errorf("recorded %d backoff waits, want 3", len(rec.all()))
	}
}

func TestRetryAfterHonored(t *testing.T) {
	// A server that 429s once with an explicit Retry-After, then serves.
	var mu sync.Mutex
	rejected := false
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := !rejected
		rejected = true
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":{"kind":"queue_full","message":"full"}}`)
			return
		}
		io.WriteString(w, `{"id":"0123456789abcdef","status":"queued"}`)
	}))
	defer backend.Close()

	rec := &recorder{}
	c := New(Config{BaseURL: backend.URL, Sleep: rec.sleep, MaxDelay: 50 * time.Millisecond})
	if _, err := c.Submit(context.Background(), serve.JobSpec{Bench: "MD5", Policy: "snuca"}); err != nil {
		t.Fatal(err)
	}
	waits := rec.all()
	if len(waits) != 1 || waits[0] < 3*time.Second {
		t.Errorf("waits = %v, want one wait >= the server's Retry-After of 3s", waits)
	}
	if got := c.Counters(); got.RetryAfterWaits != 1 {
		t.Errorf("counters = %+v, want 1 retry_after_wait", got)
	}
}

func TestIdempotentResubmissionAfterResponseLoss(t *testing.T) {
	// The ambiguous failure: the POST reaches the server (job admitted),
	// the response is lost. The client resubmits; the content address
	// coalesces; exactly one simulation runs.
	srv, ts := startServer(t, serve.Config{Workers: 1})
	lost := false
	var mu sync.Mutex
	inner := ts.Client().Transport
	lossy := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		mu.Lock()
		first := !lost && req.Method == http.MethodPost
		if first {
			lost = true
		}
		mu.Unlock()
		resp, err := inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		if first {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil, errors.New("synthetic reset after send")
		}
		return resp, nil
	})
	rec := &recorder{}
	c := New(Config{BaseURL: ts.URL, HTTP: &http.Client{Transport: lossy}, Sleep: rec.sleep, Seed: 3})

	res, err := c.Run(context.Background(), serve.JobSpec{Bench: "Kmeans", Policy: "tdnuca", Factor: testFactor})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Payload) == 0 {
		t.Fatal("no payload")
	}
	snap := srv.Snapshot()
	if snap.Completed != 1 {
		t.Errorf("completed = %d, want exactly 1 despite the resubmission", snap.Completed)
	}
	if snap.Coalesced != 1 {
		t.Errorf("coalesced = %d, want the resubmission to coalesce", snap.Coalesced)
	}
	if got := c.Counters(); got.Resubmits != 1 {
		t.Errorf("counters = %+v, want 1 resubmit", got)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestStreamResumeAfterDisconnect(t *testing.T) {
	_, ts := startServer(t, serve.Config{Workers: 1})
	inner := ts.Client().Transport
	var mu sync.Mutex
	cut := 0
	// Truncate the first two stream responses mid-body; later connects
	// pass through untouched.
	trunc := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := inner.RoundTrip(req)
		if err != nil || !strings.HasSuffix(req.URL.Path, "/stream") {
			return resp, err
		}
		mu.Lock()
		n := cut
		cut++
		mu.Unlock()
		if n < 2 {
			resp.Body = &cutBody{rc: resp.Body, remain: 10 + n*7}
		}
		return resp, nil
	})
	rec := &recorder{}
	c := New(Config{BaseURL: ts.URL, HTTP: &http.Client{Transport: trunc}, Sleep: rec.sleep, Seed: 4})

	res, err := c.Run(context.Background(), serve.JobSpec{Bench: "MD5", Policy: "snuca", Factor: testFactor})
	if err != nil {
		t.Fatal(err)
	}
	var p serve.ResultPayload
	if err := json.Unmarshal(res.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters(); got.StreamResumes < 1 {
		t.Errorf("counters = %+v, want at least one stream resume", got)
	}
}

type cutBody struct {
	rc     io.ReadCloser
	remain int
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= n
	return n, err
}

func (b *cutBody) Close() error { return b.rc.Close() }

func TestAttemptsExhausted(t *testing.T) {
	rt := roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("network is lava")
	})
	rec := &recorder{}
	c := New(Config{BaseURL: "http://unreachable.invalid", HTTP: &http.Client{Transport: rt}, Sleep: rec.sleep, MaxAttempts: 4})
	_, err := c.Submit(context.Background(), serve.JobSpec{Bench: "MD5", Policy: "snuca"})
	if !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("err = %v, want ErrAttemptsExhausted", err)
	}
	if !strings.Contains(err.Error(), "network is lava") {
		t.Errorf("exhaustion error %q lost the final cause", err)
	}
	if got := c.Counters(); got.Requests != 4 || got.Retries != 3 {
		t.Errorf("counters = %+v, want 4 requests / 3 retries", got)
	}
}

func TestNonRetryableErrorsSurfaceImmediately(t *testing.T) {
	_, ts := startServer(t, serve.Config{Workers: 1})
	rec := &recorder{}
	c := New(Config{BaseURL: ts.URL, Sleep: rec.sleep})
	_, err := c.Submit(context.Background(), serve.JobSpec{Bench: "nope", Policy: "snuca"})
	if err == nil || !strings.Contains(err.Error(), "invalid_spec") {
		t.Fatalf("err = %v, want invalid_spec", err)
	}
	if got := c.Counters(); got.Retries != 0 {
		t.Errorf("client retried a 400: %+v", got)
	}
	if len(rec.all()) != 0 {
		t.Errorf("client slept on a 400: %v", rec.all())
	}
}

func TestAwaitSurfacesJobFailure(t *testing.T) {
	_, ts := startServer(t, serve.Config{Workers: 1})
	rec := &recorder{}
	c := New(Config{BaseURL: ts.URL, Sleep: rec.sleep})
	spec := serve.JobSpec{Bench: "LU", Policy: "snuca", Factor: testFactor, MaxCycles: 1}
	view, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Await(context.Background(), view.ID)
	if err == nil || final.Status != serve.StatusFailed {
		t.Fatalf("await = %+v / %v, want failed with a budget error", final, err)
	}
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Kind != "budget" {
		t.Errorf("err = %v, want APIError kind budget", err)
	}
	// A budget failure is the job's answer, not a transient: Run must
	// not have retried the simulation.
	if got := c.Counters(); got.StreamResumes != 0 {
		t.Errorf("client resumed on a terminal failure: %+v", got)
	}
}

func TestContextCancellationStopsRetrying(t *testing.T) {
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return nil, errors.New("down")
	})
	ctx, cancel := context.WithCancel(context.Background())
	c := New(Config{BaseURL: "http://x.invalid", HTTP: &http.Client{Transport: rt},
		Sleep: func(sctx context.Context, _ time.Duration) error { cancel(); return sctx.Err() }})
	_, err := c.Submit(ctx, serve.JobSpec{Bench: "MD5", Policy: "snuca"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// fault is one entry of flakyRT's schedule.
type fault string

const (
	pass           fault = "pass"
	unavailable    fault = "503"              // synthetic; the request never reaches the server
	resetAfterSend fault = "reset-after-send" // the server handles the request, the response is lost
	truncate       fault = "truncate"         // the response body ends early
)

// flakyRT sits between the client and a real server and applies a
// fixed, cyclic fault schedule to the requests it sees, counting each
// fault it injects. Truncation applies to result fetches only, so it
// fires on the exact bytes Result must validate.
type flakyRT struct {
	next http.RoundTripper

	mu       sync.Mutex
	n        int
	injected map[fault]int
}

// flakySchedule interleaves every fault with clean requests, so each
// retry loop gets through within a few attempts.
var flakySchedule = []fault{pass, unavailable, pass, resetAfterSend, truncate}

func (f *flakyRT) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	kind := flakySchedule[f.n%len(flakySchedule)]
	f.n++
	if kind == truncate && !strings.HasSuffix(req.URL.Path, "/result") {
		kind = pass
	}
	if kind != pass {
		f.injected[kind]++
	}
	f.mu.Unlock()

	if kind == unavailable {
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader(`{"error":{"kind":"unavailable","message":"injected"}}`)),
			Request:    req,
		}, nil
	}
	resp, err := f.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch kind {
	case resetAfterSend:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("flaky transport: %w", syscall.ECONNRESET)
	case truncate:
		resp.Body = &cutBody{rc: resp.Body, remain: 32}
	}
	return resp, nil
}

// TestRunThroughFlakyTransport is the package's end-to-end proof: 503s,
// resets after the server saw the request, and truncated result bodies
// between the client and a real server, and the client still lands
// every job exactly once with the right bytes.
func TestRunThroughFlakyTransport(t *testing.T) {
	srv, ts := startServer(t, serve.Config{Workers: 2, QueueCap: 64})
	rt := &flakyRT{next: ts.Client().Transport, injected: map[fault]int{}}
	rec := &recorder{}
	c := New(Config{BaseURL: ts.URL, HTTP: &http.Client{Transport: rt}, Sleep: rec.sleep, Seed: 99, MaxAttempts: 20})

	var specs []serve.JobSpec
	for _, bench := range workloads.Names()[:4] {
		specs = append(specs, serve.JobSpec{Bench: bench, Policy: "tdnuca", Factor: testFactor})
	}
	ids := make(map[string]bool)
	for round := 0; round < 3; round++ { // repeats: cache hits through the faults too
		for _, spec := range specs {
			res, err := c.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, spec.Bench, err)
			}
			ids[res.ID] = true
			var p serve.ResultPayload
			if err := json.Unmarshal(res.Payload, &p); err != nil {
				t.Fatalf("round %d %s payload: %v", round, spec.Bench, err)
			}
		}
	}
	if len(ids) != len(specs) {
		t.Errorf("%d unique ids for %d unique specs", len(ids), len(specs))
	}
	snap := srv.Snapshot()
	if snap.Completed != uint64(len(specs)) {
		t.Errorf("completed = %d, want exactly %d despite the faults", snap.Completed, len(specs))
	}
	for _, kind := range []fault{unavailable, resetAfterSend, truncate} {
		if rt.injected[kind] == 0 {
			t.Errorf("fault %s never fired (%v); the test proved nothing about it", kind, rt.injected)
		}
	}

	// Fidelity: digests match direct harness runs.
	refCfg := harness.DefaultConfig()
	refCfg.Factor = workloads.Factor(testFactor)
	for _, spec := range specs {
		res, err := c.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var p serve.ResultPayload
		if err := json.Unmarshal(res.Payload, &p); err != nil {
			t.Fatal(err)
		}
		direct, err := harness.Run(context.Background(), harness.Job{Bench: spec.Bench, Kind: harness.TDNUCA, Cfg: refCfg})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%016x", direct.Digest()); p.Digest != want {
			t.Errorf("%s: served digest %s != direct %s", spec.Bench, p.Digest, want)
		}
	}
}

// TestAwaitUnknownJobFails: a stream for an id the server does not
// know is a 404, which Await must report, not turn into a success.
func TestAwaitUnknownJobFails(t *testing.T) {
	_, ts := startServer(t, serve.Config{Workers: 1})
	rec := &recorder{}
	c := New(Config{BaseURL: ts.URL, Sleep: rec.sleep})
	view, err := c.Await(context.Background(), "00000000deadbeef")
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Kind != "unknown_job" {
		t.Fatalf("await = %+v / %v, want an unknown_job APIError", view, err)
	}
	if len(rec.all()) != 0 {
		t.Errorf("client retried a 404: %v", rec.all())
	}
}

// rawStream fetches a finished job's ndjson stream bytes from a live
// server.
func rawStream(tb testing.TB, c *Client, ts *httptest.Server, spec serve.JobSpec) []byte {
	tb.Helper()
	view, err := c.Submit(context.Background(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	c.Await(context.Background(), view.ID) // failed jobs stream too
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzAwaitStream feeds arbitrary bytes to Await as a stream body. Await
// must never panic, and it reports success exactly when it reports a
// done job. The seeds are real server streams: a done job, a traced
// job with sample lines, a budget-failed job and a truncated stream.
func FuzzAwaitStream(f *testing.F) {
	_, ts := startServer(f, serve.Config{Workers: 1})
	c := New(Config{BaseURL: ts.URL})
	done := rawStream(f, c, ts, serve.JobSpec{Bench: "MD5", Policy: "snuca", Factor: testFactor})
	traced := rawStream(f, c, ts, serve.JobSpec{Bench: "MD5", Policy: "tdnuca", Factor: testFactor, Trace: true})
	failed := rawStream(f, c, ts, serve.JobSpec{Bench: "LU", Policy: "snuca", Factor: testFactor, MaxCycles: 1})
	for _, seed := range []struct {
		body []byte
		line string
	}{{done, `"type":"result"`}, {traced, `"type":"sample"`}, {failed, `"type":"error"`}} {
		if !bytes.Contains(seed.body, []byte(seed.line)) {
			f.Fatalf("seed stream has no %s line:\n%s", seed.line, seed.body)
		}
		f.Add(seed.body)
	}
	f.Add(done[:len(done)/2])

	f.Fuzz(func(t *testing.T, body []byte) {
		rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode: http.StatusOK,
				Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
				Body:       io.NopCloser(bytes.NewReader(body)),
				Request:    req,
			}, nil
		})
		c := New(Config{
			BaseURL:     "http://stream.invalid",
			HTTP:        &http.Client{Transport: rt},
			MaxAttempts: 2,
			Sleep:       func(context.Context, time.Duration) error { return nil },
		})
		view, err := c.Await(context.Background(), "00000000000000aa")
		if (err == nil) != (view.Status == serve.StatusDone) {
			t.Fatalf("await = status %q, err %v: success must mean done", view.Status, err)
		}
	})
}

func TestResultValidatesPayloadIdentity(t *testing.T) {
	// A backend that returns a well-formed payload with the wrong id
	// (e.g. a misrouted cache) twice, then the right one.
	good := serve.ResultPayload{Schema: serve.PayloadSchema, ID: "00000000000000aa"}
	goodBytes, _ := json.Marshal(good)
	bad := serve.ResultPayload{Schema: serve.PayloadSchema, ID: "00000000000000bb"}
	badBytes, _ := json.Marshal(bad)
	var mu sync.Mutex
	wrong := 2
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if wrong > 0 {
			wrong--
			w.Write(badBytes)
			return
		}
		w.Write(goodBytes)
	}))
	defer backend.Close()
	rec := &recorder{}
	c := New(Config{BaseURL: backend.URL, Sleep: rec.sleep})
	b, err := c.Result(context.Background(), "00000000000000aa")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, goodBytes) {
		t.Errorf("payload = %s", b)
	}
	if len(rec.all()) != 2 {
		t.Errorf("recorded %d waits, want 2 identity-mismatch retries", len(rec.all()))
	}
}

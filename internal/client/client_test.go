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
	"testing"
	"time"

	"tdnuca/internal/chaos"
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

func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
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

// TestRunThroughChaos is the package's end-to-end proof: a realistic
// chaotic network (severity 3: 5xxs, resets both directions,
// truncations, latency) between the client and a real server, and the
// client still lands every job exactly once with the right bytes.
func TestRunThroughChaos(t *testing.T) {
	srv, ts := startServer(t, serve.Config{Workers: 2, QueueCap: 64})
	cfg := chaos.LadderAt(1234, 3)
	cfg.Sleep = func(time.Duration) {} // latency faults: decide deterministically, wait not at all
	ct, err := chaos.NewTransport(ts.Client().Transport, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	c := New(Config{BaseURL: ts.URL, HTTP: &http.Client{Transport: ct}, Sleep: rec.sleep, Seed: 99, MaxAttempts: 20})

	var specs []serve.JobSpec
	for _, bench := range workloads.Names()[:4] {
		specs = append(specs, serve.JobSpec{Bench: bench, Policy: "tdnuca", Factor: testFactor})
	}
	ids := make(map[string]bool)
	for round := 0; round < 3; round++ { // repeats: cache hits under chaos too
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
		t.Errorf("completed = %d, want exactly %d despite chaos", snap.Completed, len(specs))
	}
	if inj := ct.Counters(); inj.Injected() == 0 {
		t.Errorf("chaos injected nothing (%+v); the test proved nothing", inj)
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

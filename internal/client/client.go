// Package client is the robust Go client for tdnuca-serve: request
// timeouts, capped exponential backoff with deterministic seeded
// jitter, Retry-After honoring on 429/503, idempotent resubmission
// keyed by the content address, and ndjson stream consumption that
// resumes by job id after a mid-stream disconnect.
//
// The design leans on the service's one structural guarantee: a job's
// identity is the content address of its normalized spec, so
// *resubmitting is always safe* — a duplicate POST coalesces onto the
// original admission or hits the cache, never schedules a second
// simulation. Every retry decision in this package reduces to that
// fact. This is the decentralized client/manager shape of
// "Asynchronous Runtime with Distributed Manager" runtimes: clients
// re-drive idempotent work units instead of coordinating failure.
//
// Determinism discipline: which delays the backoff draws is a pure
// function of the client's Seed (sim.RNG jitter); only *waiting them
// out* touches the wall clock, through the one annotated timer in
// wait — or whatever Sleep hook a test injects.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tdnuca/internal/serve"
	"tdnuca/internal/sim"
)

// Config parameterizes a Client. Zero values take the defaults noted on
// each field.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// HTTP is the underlying client; nil means a plain &http.Client{}.
	// Wrap its Transport to test fault paths.
	HTTP *http.Client
	// RequestTimeout bounds each non-stream request (default 30s).
	// Streams are bounded by the caller's context instead: a healthy
	// stream legitimately outlives any fixed per-request budget.
	RequestTimeout time.Duration
	// MaxAttempts caps tries per operation, first attempt included
	// (default 10). Exhausting it returns the last error wrapped in
	// ErrAttemptsExhausted.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 5ms); each retry
	// doubles it up to MaxDelay (default 1s). The realized delay is
	// jittered into [d/2, d) by the seeded generator.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter. Two clients with one seed draw identical
	// delay sequences — retry storms are reproducible, and distinct
	// seeds per client de-synchronize them.
	Seed uint64
	// Sleep replaces the real backoff wait (tests). Nil = the package's
	// timer. It must honor ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 10
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 5 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = time.Second
	}
	return c
}

// ErrAttemptsExhausted marks an operation that failed on every allowed
// attempt; errors.Is(err, ErrAttemptsExhausted) detects it through the
// wrapping that preserves the final cause.
var ErrAttemptsExhausted = errors.New("client: attempts exhausted")

// Counters is a snapshot of the client's behavior.
type Counters struct {
	Requests        uint64 `json:"requests"`          // HTTP requests issued (streams count once per (re)connect)
	Retries         uint64 `json:"retries"`           // re-issues after a retryable failure
	Resubmits       uint64 `json:"resubmits"`         // POST retries specifically (idempotent by content address)
	StreamResumes   uint64 `json:"stream_resumes"`    // stream reconnects after a mid-stream disconnect
	RetryAfterWaits uint64 `json:"retry_after_waits"` // waits dictated by a Retry-After header
}

// Client is a retrying tdnuca-serve client. Safe for concurrent use;
// the jitter generator is the only shared mutable state and sits behind
// a mutex.
type Client struct {
	cfg  Config
	http *http.Client

	mu  sync.Mutex
	rng *sim.RNG

	stats   Counters
	statsMu sync.Mutex
}

// New builds a Client over cfg.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{cfg: cfg, http: cfg.HTTP, rng: sim.NewRNG(cfg.Seed)}
}

// Counters snapshots the client's statistics.
func (c *Client) Counters() Counters {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

func (c *Client) count(f func(*Counters)) {
	c.statsMu.Lock()
	f(&c.stats)
	c.statsMu.Unlock()
}

// backoff returns the jittered delay for attempt (0-based: the delay
// *after* attempt n). Pure of the wall clock; the draw order is the
// only cross-call state.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BaseDelay << attempt
	if d <= 0 || d > c.cfg.MaxDelay { // <<= overflow guards too
		d = c.cfg.MaxDelay
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(c.rng.Uint64()%uint64(half))
}

// wait blocks for d or until ctx ends.
func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.cfg.Sleep != nil {
		return c.cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d) //tdnuca:allow(wallclock) retry backoff against a real network is wall-clock by nature; the delay values themselves stay seeded
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter parses a Retry-After header in seconds form (the only form
// the service emits). -1 means absent/unparseable.
func retryAfter(resp *http.Response) int {
	if resp == nil {
		return -1
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// retryable classifies a response status: 429 and every 5xx are
// transient service/network conditions worth re-driving; everything
// else is the caller's answer.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// pause sleeps between attempt and attempt+1, honoring a Retry-After
// hint (never waiting less than the server asked) and otherwise the
// jittered exponential schedule.
func (c *Client) pause(ctx context.Context, attempt, retryAfterSec int) error {
	d := c.backoff(attempt)
	if retryAfterSec >= 0 {
		if ra := time.Duration(retryAfterSec) * time.Second; ra > d {
			d = ra
		}
		c.count(func(s *Counters) { s.RetryAfterWaits++ })
	}
	return c.wait(ctx, d)
}

// apiError decodes the service's structured error envelope; falls back
// to the raw body.
func apiError(status int, body []byte) error {
	var eb struct {
		Error *serve.APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error != nil {
		return fmt.Errorf("HTTP %d: %w", status, eb.Error)
	}
	return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
}

// do runs one request with the full retry loop and returns the final
// status and body. A nil error means a non-retryable (or successful)
// status was reached; the caller still checks the status. A retried
// POST also counts as a resubmission.
func (c *Client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.count(func(s *Counters) {
				s.Retries++
				if method == http.MethodPost {
					s.Resubmits++
				}
			})
		}
		status, b, raSec, err := c.once(ctx, method, url, body)
		if err == nil && !retryable(status) {
			return status, b, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = apiError(status, b)
		}
		if ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
		if attempt < c.cfg.MaxAttempts-1 {
			if werr := c.pause(ctx, attempt, raSec); werr != nil {
				return 0, nil, werr
			}
		}
	}
	return 0, nil, fmt.Errorf("%w after %d attempts (%s %s): %w",
		ErrAttemptsExhausted, c.cfg.MaxAttempts, method, url, lastErr)
}

// once issues a single attempt under the per-request timeout.
func (c *Client) once(ctx context.Context, method, url string, body []byte) (status int, b []byte, raSec int, err error) {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, url, rd)
	if err != nil {
		return 0, nil, -1, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.count(func(s *Counters) { s.Requests++ })
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, -1, err
	}
	defer resp.Body.Close()
	b, err = io.ReadAll(resp.Body)
	if err != nil {
		// Truncated/reset mid-body: the bytes are not trustworthy.
		return 0, nil, retryAfter(resp), err
	}
	return resp.StatusCode, b, retryAfter(resp), nil
}

// Submit posts a job spec and returns its admission view. Resubmission
// on any transient failure is safe by construction: the spec's content
// address coalesces duplicates server-side.
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (serve.StatusView, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return serve.StatusView{}, err
	}
	status, body, err := c.do(ctx, http.MethodPost, c.cfg.BaseURL+"/v1/jobs", b)
	if err != nil {
		return serve.StatusView{}, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return serve.StatusView{}, apiError(status, body)
	}
	var view serve.StatusView
	if err := json.Unmarshal(body, &view); err != nil {
		return serve.StatusView{}, fmt.Errorf("client: submit response: %w", err)
	}
	if view.ID == "" {
		return serve.StatusView{}, fmt.Errorf("client: submit response missing id")
	}
	return view, nil
}

// Status fetches a job's current view.
func (c *Client) Status(ctx context.Context, id string) (serve.StatusView, error) {
	status, body, err := c.do(ctx, http.MethodGet, c.cfg.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return serve.StatusView{}, err
	}
	if status != http.StatusOK {
		return serve.StatusView{}, apiError(status, body)
	}
	var view serve.StatusView
	if err := json.Unmarshal(body, &view); err != nil {
		return serve.StatusView{}, fmt.Errorf("client: status response: %w", err)
	}
	return view, nil
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (serve.Stats, error) {
	status, body, err := c.do(ctx, http.MethodGet, c.cfg.BaseURL+"/v1/stats", nil)
	if err != nil {
		return serve.Stats{}, err
	}
	if status != http.StatusOK {
		return serve.Stats{}, apiError(status, body)
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return serve.Stats{}, fmt.Errorf("client: stats response: %w", err)
	}
	return st, nil
}

// Await follows the job's ndjson stream to a terminal state. A
// mid-stream disconnect — truncation, reset, a proxy giving up — is
// resumed by reconnecting to the stream *by job id*: the stream always
// replays the current status first, so no transition is lost. Returns
// the terminal view; a failed/canceled job returns the view plus its
// APIError as the error.
func (c *Client) Await(ctx context.Context, id string) (serve.StatusView, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.count(func(s *Counters) { s.StreamResumes++ })
		}
		view, terminal, err := c.streamOnce(ctx, id)
		if terminal {
			if err != nil {
				return view, err
			}
			if view.Status == serve.StatusFailed || view.Status == serve.StatusCanceled {
				if view.Error != nil {
					return view, view.Error
				}
				return view, fmt.Errorf("client: job %s %s", id, view.Status)
			}
			return view, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return serve.StatusView{}, ctx.Err()
		}
		if attempt < c.cfg.MaxAttempts-1 {
			if werr := c.pause(ctx, attempt, -1); werr != nil {
				return serve.StatusView{}, werr
			}
		}
	}
	return serve.StatusView{}, fmt.Errorf("%w after %d stream attempts (job %s): %w",
		ErrAttemptsExhausted, c.cfg.MaxAttempts, id, lastErr)
}

// streamOnce consumes one stream connection. terminal reports whether a
// terminal line (result/error, or a terminal status) was reached; if
// not, err says why the stream died early. A terminal non-nil err is a
// non-retryable HTTP status such as 404: the answer, not a job state.
func (c *Client) streamOnce(ctx context.Context, id string) (view serve.StatusView, terminal bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return serve.StatusView{}, false, err
	}
	c.count(func(s *Counters) { s.Requests++ })
	resp, err := c.http.Do(req)
	if err != nil {
		return serve.StatusView{}, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if retryable(resp.StatusCode) {
		body, _ := io.ReadAll(resp.Body)
		return serve.StatusView{}, false, apiError(resp.StatusCode, body)
	}
	if resp.StatusCode != http.StatusOK {
		// Non-retryable (404 and friends): surface as terminal failure.
		body, _ := io.ReadAll(resp.Body)
		return serve.StatusView{}, true, apiError(resp.StatusCode, body)
	}

	dec := json.NewDecoder(resp.Body)
	for {
		var line struct {
			Type   string            `json:"type"`
			Status *serve.StatusView `json:"status"`
			Result json.RawMessage   `json:"result"`
			Err    *serve.APIError   `json:"error"`
		}
		if derr := dec.Decode(&line); derr != nil {
			// io.EOF here means the server closed without a terminal line
			// (a drain, a dropped connection): still a resume case.
			return view, false, fmt.Errorf("client: stream %s broke: %w", id, derr)
		}
		switch line.Type {
		case "status":
			if line.Status != nil {
				view = *line.Status
			}
			if view.Status == serve.StatusFailed || view.Status == serve.StatusCanceled {
				return view, true, nil
			}
		case "result":
			// The payload itself is fetched via Result (verbatim bytes);
			// the stream's copy just proves completion.
			view.Status = serve.StatusDone
			return view, true, nil
		case "error":
			view.Status = serve.StatusFailed
			view.Error = line.Err
			return view, true, nil
		case "sample":
			// Interval samples of traced jobs: progress, not state.
		}
	}
}

// Result fetches the terminal payload bytes — the exact bytes every
// other client of this content address receives. The payload is
// validated (well-formed JSON whose id matches) before being returned,
// so a truncated-in-flight body triggers a retry instead of reaching
// the caller.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		status, body, err := c.do(ctx, http.MethodGet, c.cfg.BaseURL+"/v1/jobs/"+id+"/result", nil)
		if err != nil {
			return nil, err // do already retried transport/5xx failures
		}
		if status != http.StatusOK {
			return nil, apiError(status, body)
		}
		var p serve.ResultPayload
		if err := json.Unmarshal(body, &p); err == nil && p.ID == id {
			return body, nil
		} else if err != nil {
			lastErr = fmt.Errorf("client: result payload for %s unparseable (truncated in flight?): %w", id, err)
		} else {
			lastErr = fmt.Errorf("client: result payload id %s != requested %s", p.ID, id)
		}
		c.count(func(s *Counters) { s.Retries++ })
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt < c.cfg.MaxAttempts-1 {
			if werr := c.pause(ctx, attempt, -1); werr != nil {
				return nil, werr
			}
		}
	}
	return nil, fmt.Errorf("%w after %d attempts (result %s): %w",
		ErrAttemptsExhausted, c.cfg.MaxAttempts, id, lastErr)
}

// RunResult is the outcome of a full Run: the job's id, terminal view
// and (for successful jobs) verbatim payload bytes.
type RunResult struct {
	ID      string
	View    serve.StatusView
	Payload []byte
}

// Run drives one job end to end: submit (idempotently retried), await
// the terminal state (stream, resumed on disconnect), fetch the
// payload.
func (c *Client) Run(ctx context.Context, spec serve.JobSpec) (RunResult, error) {
	view, err := c.Submit(ctx, spec)
	if err != nil {
		return RunResult{}, fmt.Errorf("client: submit: %w", err)
	}
	id := view.ID
	if view.Status != serve.StatusDone {
		view, err = c.Await(ctx, id)
		if err != nil {
			return RunResult{ID: id, View: view}, fmt.Errorf("client: await %s: %w", id, err)
		}
	}
	payload, err := c.Result(ctx, id)
	if err != nil {
		return RunResult{ID: id, View: view}, fmt.Errorf("client: result %s: %w", id, err)
	}
	return RunResult{ID: id, View: view, Payload: payload}, nil
}

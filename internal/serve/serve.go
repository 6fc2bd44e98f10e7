package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"tdnuca/internal/harness"
	"tdnuca/internal/sim"
	"tdnuca/internal/taskrt"
	"tdnuca/internal/trace"
)

// Config sizes the service. Zero values mean the defaults noted on each
// field.
type Config struct {
	// Workers is the simulation pool width (default 2). Each worker runs
	// one job at a time through the harness.
	Workers int
	// QueueCap bounds the admission queue (default 64): submissions
	// beyond it are rejected with 429 + Retry-After instead of growing
	// memory without bound.
	QueueCap int
	// CacheCap bounds the in-memory result LRU, in entries (default 128).
	CacheCap int
	// CacheDir, when set, persists payloads (and the drain-time index)
	// on disk so results survive restarts.
	CacheDir string
	// MaxCycles, when set, is a server-side schedule budget applied to
	// jobs that did not bring their own: a runaway job then fails with a
	// budget error instead of occupying a worker forever.
	MaxCycles uint64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 128
	}
	return c
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// jobState is one admitted job. All fields past the immutable header
// are guarded by Server.mu; changed is closed (and replaced) on every
// status transition, so watchers wait without polling.
type jobState struct {
	id   string
	spec JobSpec // normalized
	seq  uint64  // admission order, the queue's FIFO tie-break

	status   Status
	cacheHit bool
	payload  []byte    // response bytes once done
	apiErr   *APIError // terminal error once failed/canceled
	changed  chan struct{}
}

// APIError is the structured error body of every non-2xx response:
// a stable machine-readable kind plus a human message. StallError
// budgets map to kind "budget", deadlocks to "deadlock", canceled runs
// to "canceled".
type APIError struct {
	HTTPStatus int    `json:"-"`
	Kind       string `json:"kind"`
	Message    string `json:"message"`
}

func (e *APIError) Error() string { return e.Kind + ": " + e.Message }

func apiErrorf(status int, kind, format string, args ...any) *APIError {
	return &APIError{HTTPStatus: status, Kind: kind, Message: fmt.Sprintf(format, args...)}
}

// classify maps a harness error onto the API error vocabulary: the
// structured StallError kinds keep their identity across the HTTP
// boundary instead of degenerating into strings.
func classify(err error) *APIError {
	var se *taskrt.StallError
	if errors.As(err, &se) {
		switch se.Kind {
		case taskrt.StallBudget:
			return apiErrorf(http.StatusUnprocessableEntity, "budget", "%v", err)
		case taskrt.StallDeadlock:
			return apiErrorf(http.StatusUnprocessableEntity, "deadlock", "%v", err)
		case taskrt.StallCanceled:
			return apiErrorf(http.StatusServiceUnavailable, "canceled", "%v", err)
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return apiErrorf(http.StatusServiceUnavailable, "canceled", "%v", err)
	}
	return apiErrorf(http.StatusInternalServerError, "internal", "%v", err)
}

// RetryAfterSeconds is the constant backpressure hint on 429 responses.
// It is a constant — not an estimate from the wall clock — because the
// service, like every simulation package, never reads real time.
const RetryAfterSeconds = 1

// Stats is the live counter snapshot of /v1/stats.
type Stats struct {
	Submitted      uint64 `json:"submitted"`
	Coalesced      uint64 `json:"coalesced"`
	Rejected       uint64 `json:"rejected"`
	Completed      uint64 `json:"completed"`
	Failed         uint64 `json:"failed"`
	Canceled       uint64 `json:"canceled"`
	Queued         int    `json:"queued"`
	Running        int    `json:"running"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// CacheQuarantined counts disk payloads that failed integrity
	// verification and were renamed *.corrupt instead of being served.
	CacheQuarantined uint64 `json:"cache_quarantined"`
	CacheResident    int    `json:"cache_resident"`
	Draining         bool   `json:"draining"`
}

// Server is the experiment service: admission control, the priority
// queue, the worker pool (pool.go) and the content-addressed cache.
type Server struct {
	cfg   Config
	cache *cache

	mu       sync.Mutex
	cond     *sync.Cond // queue activity / shutdown wakeups
	jobs     map[string]*jobState
	queue    jobQueue
	seq      uint64
	running  int
	draining bool
	started  bool

	cancelRuns context.CancelFunc // aborts in-flight harness runs
	done       chan struct{}      // closed when the last worker exits

	stats Stats
}

// New builds a Server; Start must be called before submissions run.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	c, err := newCache(cfg.CacheCap, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: c,
		jobs:  make(map[string]*jobState),
		done:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// StatusView is the JSON shape of a job's state, shared by the submit,
// status and stream endpoints.
type StatusView struct {
	ID       string    `json:"id"`
	Status   Status    `json:"status"`
	CacheHit bool      `json:"cache_hit"`
	Spec     JobSpec   `json:"spec"`
	Error    *APIError `json:"error,omitempty"`
}

func (st *jobState) viewLocked() StatusView {
	return StatusView{ID: st.id, Status: st.status, CacheHit: st.cacheHit, Spec: st.spec, Error: st.apiErr}
}

// transitionLocked moves the job to a new status and wakes watchers.
func (st *jobState) transitionLocked(to Status) {
	st.status = to
	close(st.changed)
	st.changed = make(chan struct{})
}

// Submit validates, normalizes and admits one job. The returned view
// reflects the job's state at admission: done (cache or coalesced hit),
// queued, or an *APIError (invalid spec, queue full, draining).
func (s *Server) Submit(spec JobSpec) (StatusView, *APIError) {
	if err := spec.normalize(); err != nil {
		return StatusView{}, apiErrorf(http.StatusBadRequest, "invalid_spec", "%v", err)
	}
	if err := spec.validate(); err != nil {
		return StatusView{}, apiErrorf(http.StatusBadRequest, "invalid_spec", "%v", err)
	}
	id := spec.ID()

	s.mu.Lock()
	s.stats.Submitted++
	if st, ok := s.jobs[id]; ok {
		// Coalesce: same content address, any state — the earlier
		// admission already covers this work. A finished job is reported
		// as a cache hit: the submission was satisfied without
		// scheduling a new simulation.
		s.stats.Coalesced++
		v := st.viewLocked()
		if st.status == StatusDone {
			v.CacheHit = true
		}
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()

	// Cache lookup outside the server lock: the disk tier (read +
	// integrity verification, possibly a quarantine rename) must not
	// block unrelated submissions, status reads or worker transitions.
	payload, cached := s.cache.get(id)

	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.jobs[id]; ok {
		// An identical submission raced us during the cache lookup.
		s.stats.Coalesced++
		v := st.viewLocked()
		if st.status == StatusDone {
			v.CacheHit = true
		}
		return v, nil
	}
	if cached {
		st := &jobState{
			id: id, spec: spec, status: StatusDone, cacheHit: true,
			payload: payload, changed: make(chan struct{}),
		}
		s.jobs[id] = st
		return st.viewLocked(), nil
	}
	if s.draining {
		s.stats.Rejected++
		return StatusView{}, apiErrorf(http.StatusServiceUnavailable, "draining", "server is draining; not admitting jobs")
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.stats.Rejected++
		return StatusView{}, apiErrorf(http.StatusTooManyRequests, "queue_full",
			"admission queue is full (%d jobs); retry after %d second(s)", len(s.queue), RetryAfterSeconds)
	}
	s.seq++
	st := &jobState{id: id, spec: spec, seq: s.seq, status: StatusQueued, changed: make(chan struct{})}
	s.jobs[id] = st
	s.queue.push(st)
	s.cond.Signal()
	return st.viewLocked(), nil
}

// Lookup returns the state view of a job by id.
func (s *Server) Lookup(id string) (StatusView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[id]
	if !ok {
		return StatusView{}, false
	}
	return st.viewLocked(), true
}

// Result returns the terminal payload (or error) of a job: the exact
// bytes every future hit of this content address will also receive.
func (s *Server) Result(id string) ([]byte, *APIError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[id]
	if !ok {
		return nil, apiErrorf(http.StatusNotFound, "unknown_job", "no job %s", id)
	}
	switch st.status {
	case StatusDone:
		return st.payload, nil
	case StatusFailed, StatusCanceled:
		return nil, st.apiErr
	default:
		return nil, apiErrorf(http.StatusConflict, "not_done", "job %s is %s", id, st.status)
	}
}

// watch returns the job's current view plus the channel that closes on
// its next transition — the stream endpoint's wait primitive.
func (s *Server) watch(id string) (StatusView, <-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[id]
	if !ok {
		return StatusView{}, nil, false
	}
	return st.viewLocked(), st.changed, true
}

// Snapshot returns the live statistics.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	st := s.stats
	st.Queued = len(s.queue)
	st.Running = s.running
	st.Draining = s.draining
	s.mu.Unlock()
	st.CacheHits, st.CacheMisses, st.CacheEvictions, st.CacheQuarantined, st.CacheResident = s.cache.counters()
	return st
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ResultPayload is the cached response body of a successful job. The
// digest is the harness Result digest (which covers the fault counters
// of a fault run) — the same fingerprint the golden files pin — so
// clients can verify cache integrity against a direct run.
type ResultPayload struct {
	Schema   string                 `json:"schema"`
	ID       string                 `json:"id"`
	Spec     JobSpec                `json:"spec"`
	Digest   string                 `json:"digest"`
	Degraded bool                   `json:"degraded,omitempty"`
	Result   harness.Result         `json:"result"`
	Faults   *DegradedCounters      `json:"faults,omitempty"`
	Samples  []trace.IntervalSample `json:"samples,omitempty"`
}

// DegradedCounters carries the fault-injection counters of a degraded
// run (the wire form of harness.FaultReport).
type DegradedCounters struct {
	Scenario        string `json:"scenario"`
	BankRetirements int    `json:"bank_retirements"`
	LinkFailures    int    `json:"link_failures"`
	RRTDegrades     int    `json:"rrt_degrades"`
	FaultCycles     uint64 `json:"fault_cycles"`
}

// PayloadSchema versions ResultPayload.
const PayloadSchema = "tdnuca-serve/v1"

// execute runs one claimed job to completion. Called from worker
// goroutines (pool.go) with the pool's run context; it owns the job's
// terminal transition.
func (s *Server) execute(ctx context.Context, st *jobState) {
	payload, apiErr := s.runSpec(ctx, st.id, st.spec)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	switch {
	case apiErr == nil:
		st.payload = payload
		s.stats.Completed++
		st.transitionLocked(StatusDone)
	case apiErr.Kind == "canceled":
		st.apiErr = apiErr
		s.stats.Canceled++
		st.transitionLocked(StatusCanceled)
	default:
		st.apiErr = apiErr
		s.stats.Failed++
		st.transitionLocked(StatusFailed)
	}
	s.cond.Broadcast()
}

// runSpec performs the simulation for a normalized spec and marshals
// the canonical payload. It holds no locks: this is the long part.
func (s *Server) runSpec(ctx context.Context, id string, spec JobSpec) ([]byte, *APIError) {
	job, err := spec.job()
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "internal", "job: %v", err)
	}
	if job.Cfg.RT.MaxCycles == 0 && s.cfg.MaxCycles > 0 {
		job.Cfg.RT.MaxCycles = sim.Cycles(s.cfg.MaxCycles)
	}
	r, err := harness.Run(ctx, job)
	if err != nil {
		return nil, classify(err)
	}
	p := ResultPayload{Schema: PayloadSchema, ID: id, Spec: spec,
		Digest: fmt.Sprintf("%016x", r.Digest()), Result: r}
	if f := r.Faults; f != nil {
		p.Degraded = true
		p.Faults = &DegradedCounters{
			Scenario:        f.Scenario,
			BankRetirements: f.BankRetirements,
			LinkFailures:    f.LinkFailures,
			RRTDegrades:     f.RRTDegrades,
			FaultCycles:     uint64(f.FaultCycles),
		}
	}
	if r.Trace != nil {
		p.Samples = r.Trace.Samples
	}
	b, err := json.Marshal(p)
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "internal", "marshal: %v", err)
	}
	// A persistence failure does not invalidate the result: the payload
	// is already in the in-memory LRU, only the disk write-through was
	// lost, and the drain-time flush will report a broken cache dir.
	_ = s.cache.put(id, b)
	return b, nil
}

// Drain stops admission, cancels everything still queued, then waits
// for in-flight jobs. If ctx ends first, in-flight runs are canceled at
// their next dispatch boundary and the wait resumes until the pool has
// fully exited. Finally the cache index is flushed. Drain is the SIGTERM
// path of cmd/tdnuca-serve and is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.draining = true
		s.mu.Unlock()
		return s.cache.flush()
	}
	if !s.draining {
		s.draining = true
		for len(s.queue) > 0 {
			st := s.queue.pop()
			st.apiErr = apiErrorf(http.StatusServiceUnavailable, "draining", "server drained before the job ran")
			s.stats.Canceled++
			st.transitionLocked(StatusCanceled)
		}
		s.cond.Broadcast()
	}
	done := s.done
	s.mu.Unlock()

	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: abort in-flight simulations. They stop at the
		// next task-dispatch boundary, so this wait is short and the
		// machine state they abandon was never shared.
		s.cancelRuns()
		<-done
	}
	s.cancelRuns()
	return s.cache.flush()
}

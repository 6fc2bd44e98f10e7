package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tdnuca/internal/client"
	"tdnuca/internal/harness"
	"tdnuca/internal/serve"
	"tdnuca/internal/sim"
	"tdnuca/internal/workloads"
)

// serve-mix is the only workload that exercises admission, the queue, the
// cache tiers and HTTP/JSON: an in-process serve.Server (2 workers, disk
// cache) behind a loopback listener, driven by closed-loop clients that
// each wait for their result. Its traffic is the default soak of
// cmd/tdnuca-load with the chaos off, so the mix is one the repository
// already defines rather than a new one: a round is 1,000 jobs over that
// command's 20-spec pool at factor 1/128 (Table II x {S-NUCA, TD-NUCA},
// two degraded and two traced runs), the pool first in order and the rest
// drawn uniformly from it, dealt round-robin to the clients. So 2% of the
// jobs simulate, and a cold job's fsync'd disk write runs next to reads
// served from memory or coalesced onto an in-flight run. tdnuca-load runs
// 8 clients and 4 server workers; serve-mix runs 2 of each, the most the
// 2-vCPU reference host runs at once. Every round uses the pool at a
// fresh seed, so it simulates its 20 specs anew.

const (
	toyFactor    = 1.0 / 256         // smoke size of the simulation workloads
	loadFactor   = 1.0 / 128         // cmd/tdnuca-load's default -factor
	loadJobs     = 1000              // cmd/tdnuca-load's default -jobs
	mixClients   = 2                 // closed-loop clients, and server workers
	serveTimeout = 150 * time.Second // whole-workload bound: fail, never hang
)

func runServeMix(b *bench) error   { return b.serveMix(false) }
func traceServeMix(b *bench) error { return b.serveMix(true) }

// loadPool is cmd/tdnuca-load's spec pool with every job at seed.
func loadPool(seed uint64) []serve.JobSpec {
	var pool []serve.JobSpec
	for _, bench := range workloads.Names() {
		for _, policy := range []string{"snuca", "tdnuca"} {
			pool = append(pool, serve.JobSpec{Bench: bench, Policy: policy, Factor: loadFactor, Seed: seed})
		}
	}
	return append(pool,
		serve.JobSpec{Bench: "Gauss", Policy: "tdnuca", Factor: loadFactor, Seed: seed, Faults: "bank=3@1000"},
		serve.JobSpec{Bench: "Kmeans", Policy: "tdnuca", Factor: loadFactor, Seed: seed, Faults: "link=1-2@2000"},
		serve.JobSpec{Bench: "MD5", Policy: "tdnuca", Factor: loadFactor, Seed: seed, Trace: true},
		serve.JobSpec{Bench: "Jacobi", Policy: "snuca", Factor: loadFactor, Seed: seed, Trace: true},
	)
}

// serveOp is one client operation of a round.
type serveOp struct {
	spec serve.JobSpec
	slot int // pool index: every op of one slot must get the same payload
	id   int // span id: the op's index in the round
}

// roundOps is round r's job list, drawn as tdnuca-load draws its jobs,
// with the pool at the round's own seed. A toy round is 4 cold jobs (two
// Table II benchmarks under S-NUCA and TD-NUCA, so the digest sample
// holds both policies) and 20 repeats.
func roundOps(c config, r int) []serveOp {
	seed := c.seed<<16 + uint64(r) + 1
	pool, n := loadPool(seed), loadJobs
	if c.toy {
		pool, n = pool[:4], 24
	}
	rng := sim.NewRNG(seed)
	ops := make([]serveOp, n)
	for i := range ops {
		slot := i
		if i >= len(pool) {
			slot = int(rng.Uint64() % uint64(len(pool)))
		}
		ops[i] = serveOp{spec: pool[slot], slot: slot, id: i}
	}
	return ops
}

// serveRig is one running server with its loopback listener.
type serveRig struct {
	srv    *serve.Server
	ts     *httptest.Server
	cancel context.CancelFunc
}

func startServer(dir string) (*serveRig, error) {
	srv, err := serve.New(serve.Config{Workers: mixClients, CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	return &serveRig{srv: srv, ts: httptest.NewServer(srv.Handler()), cancel: cancel}, nil
}

// stop closes the listener and drains the server, flushing the cache
// index, and returns once its workers have exited.
func (r *serveRig) stop() error {
	r.ts.Close()
	err := r.srv.Drain(context.Background())
	r.cancel()
	return err
}

func (r *serveRig) client(seed uint64) *client.Client {
	return client.New(client.Config{BaseURL: r.ts.URL, HTTP: r.ts.Client(), Seed: seed})
}

// opResult is what one operation measured. An op whose submission was
// not a cache hit waited for a simulation: its own, or one it coalesced
// onto. Which op of a slot starts the simulation depends on how the two
// clients interleave.
type opResult struct {
	op                     serveOp
	total                  time.Duration // Submit until Result returned
	submit, await, fetched time.Duration // traced only
	cacheHit               bool
	firstTouch             bool // first submission of this slot since the server started
	payload                []byte
}

// mixState carries one serve-mix run.
type mixState struct {
	b        *bench
	ctx      context.Context
	dir      string    // the cache directory
	rig      *serveRig // the running server
	mu       sync.Mutex
	touched  map[int]bool
	coldRuns []opResult // one op per slot of every fresh round, for the digest sample
}

func (b *bench) serveMix(traced bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	if err := os.MkdirAll(b.cfg.workDir, 0o755); err != nil {
		return fmt.Errorf("bench: work directory: %w", err)
	}
	dir, err := os.MkdirTemp(b.cfg.workDir, "serve-cache-")
	if err != nil {
		return fmt.Errorf("bench: cache directory: %w", err)
	}
	defer os.RemoveAll(dir)
	m := &mixState{b: b, ctx: ctx, dir: dir}

	// A warm-up round on a first server fills the cache directory. Set-ups
	// start servers on a copy of it as the warm-up left it, so that the
	// live server's writes never grow their work.
	if m.rig, err = startServer(dir); err != nil {
		return err
	}
	m.touched = map[int]bool{}
	m.round(roundOps(b.cfg, 0), false, false)
	if err := m.rig.stop(); err != nil {
		return err
	}
	setupDir := dir + "-setup"
	if err := copyDir(dir, setupDir); err != nil {
		return err
	}
	defer os.RemoveAll(setupDir)
	if m.rig, err = startServer(dir); err != nil {
		return err
	}
	m.touched = map[int]bool{}
	defer func() { _ = m.rig.stop() }()
	if traced {
		return m.traced()
	}

	// Set-up is serve.New on the populated cache directory plus Start plus
	// the listener; the servers are drained untimed.
	setup := func(setups []float64) ([]float64, error) {
		var rigs []*serveRig
		setups, err := timeSetups(setups, b.cfg.setupsPerRep(), func() error {
			r, err := startServer(setupDir)
			if err == nil {
				rigs = append(rigs, r)
			}
			return err
		})
		for _, r := range rigs {
			if stopErr := r.stop(); err == nil {
				err = stopErr
			}
		}
		return setups, err
	}
	var setups, raws, allocs []float64
	start := time.Now()
	for r := 1; b.more(start, raws); r++ {
		if setups, err = setup(setups); err != nil {
			return err
		}
		_, raw, alloc := m.round(roundOps(b.cfg, r), false, false)
		raws, allocs = append(raws, raw.Seconds()), append(allocs, alloc)
	}
	m.verifyUntraced()
	b.report(setups, raws, allocs)
	return nil
}

// traced is the traced pass of serve-mix: a reference round untraced and
// a fresh round traced, whose wall times give the tracing overhead; then
// a restart on the cache directory and a traced replay of the same round,
// in which each slot's first submission reads the disk tier and every
// later one is served from memory.
func (m *mixState) traced() error {
	_, ref, _ := m.round(roundOps(m.b.cfg, 1), false, false)
	ops := roundOps(m.b.cfg, 2)
	before := m.rig.srv.Snapshot()
	res, raw, _ := m.round(ops, true, false)
	st := statsDelta(m.rig.srv.Snapshot(), before)
	if err := m.rig.stop(); err != nil {
		return err
	}
	rig, err := startServer(m.dir)
	if err != nil {
		return err
	}
	m.rig, m.touched = rig, map[int]bool{}
	replay, _, _ := m.round(ops, true, true)
	st = statsSum(st, m.rig.srv.Snapshot())

	if err := m.verifyTraced(); err != nil {
		return err
	}
	m.serveLayerMetrics(res, replay, st)
	m.b.metrics["trace.overhead_pct"] = 100 * (raw.Seconds()/ref.Seconds() - 1)
	return nil
}

// copyDir copies the regular files of the directory src into a new
// directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return fmt.Errorf("bench: copying cache directory: %w", err)
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return fmt.Errorf("bench: copying cache directory: %w", err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
		if err != nil {
			return fmt.Errorf("bench: copying cache directory: %w", err)
		}
	}
	return nil
}

// statsDelta and statsSum combine the server counters the benchmark reports.
func statsDelta(after, before serve.Stats) serve.Stats {
	return serve.Stats{
		Completed:   after.Completed - before.Completed,
		Coalesced:   after.Coalesced - before.Coalesced,
		Rejected:    after.Rejected - before.Rejected,
		CacheHits:   after.CacheHits - before.CacheHits,
		CacheMisses: after.CacheMisses - before.CacheMisses,
	}
}

func statsSum(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		Completed:   a.Completed + b.Completed,
		Coalesced:   a.Coalesced + b.Coalesced,
		Rejected:    a.Rejected + b.Rejected,
		CacheHits:   a.CacheHits + b.CacheHits,
		CacheMisses: a.CacheMisses + b.CacheMisses,
	}
}

// round runs ops on closed-loop clients under the calibrator (one slice:
// when every client has its last result, nothing is in flight), checks
// every answer, and returns the ops' results, the round's raw time and
// the MB it allocated. A replay resubmits a round the cache already holds.
func (m *mixState) round(ops []serveOp, traced, replay bool) ([]opResult, time.Duration, float64) {
	runtime.GC()
	before := m.rig.srv.Snapshot()
	a0 := allocatedMB()
	var res [mixClients][]opResult
	var clients [mixClients]*client.Client
	for c := range clients {
		clients[c] = m.rig.client(m.b.cfg.seed + uint64(c))
	}
	raw, _ := m.b.cal.measure(func() error {
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(ops); i += mixClients {
					res[c] = append(res[c], m.do(clients[c], c, ops[i], traced, replay))
				}
			}(c)
		}
		wg.Wait()
		return nil
	})
	alloc := allocatedMB() - a0
	m.b.logf("serve-mix round (traced %v, replay %v): raw %.3fs alloc %.1f MB", traced, replay, raw.Seconds(), alloc)

	var raWaits, retries uint64
	for _, cl := range clients {
		raWaits += cl.Counters().RetryAfterWaits
		retries += cl.Counters().Retries
	}
	m.b.check(raWaits == 0, "serve-mix: %d Retry-After waits (429/503)", raWaits)
	m.b.metrics["client.retries"] += float64(retries)
	// A fresh round simulates each of its slots exactly once and finds
	// none in the cache tier; a replay simulates nothing.
	all := append(res[0], res[1]...)
	first := map[int][]byte{}
	for _, r := range all {
		m.b.attempted++
		if r.payload == nil {
			m.b.failed++ // do logged the error
			continue
		}
		if p, ok := first[r.op.slot]; !ok {
			first[r.op.slot] = r.payload
			if !replay {
				m.coldRuns = append(m.coldRuns, r)
			}
		} else if !bytes.Equal(p, r.payload) {
			m.b.fail("serve-mix: two payloads of %s/%s seed %d differ", r.op.spec.Bench, r.op.spec.Policy, r.op.spec.Seed)
		}
	}
	st := statsDelta(m.rig.srv.Snapshot(), before)
	m.b.check(st.Rejected == 0, "serve-mix: %d submissions rejected", st.Rejected)
	if replay {
		m.b.check(st.Completed == 0, "serve-mix: %d simulations in a replay", st.Completed)
	} else {
		m.b.check(st.Completed == uint64(len(first)) && st.CacheHits == 0,
			"serve-mix: %d simulations and %d cache-tier hits for %d new jobs", st.Completed, st.CacheHits, len(first))
	}
	return all, raw, alloc
}

// do performs one operation: Submit, Await unless already done, Result —
// exactly client.Run. Untraced it calls Run; traced it times each call
// and records spans grouped by the op's id.
func (m *mixState) do(cl *client.Client, c int, op serveOp, traced, replay bool) opResult {
	r := opResult{op: op}
	m.mu.Lock()
	r.firstTouch = !m.touched[op.slot]
	m.touched[op.slot] = true
	m.mu.Unlock()
	t0 := time.Now()
	var view serve.StatusView
	var err error
	if !traced {
		var run client.RunResult
		run, err = cl.Run(m.ctx, op.spec)
		view, r.payload = run.View, run.Payload
		r.total = time.Since(t0)
	} else {
		view, err = cl.Submit(m.ctx, op.spec)
		r.submit = time.Since(t0)
		if err == nil && view.Status != serve.StatusDone {
			t1 := time.Now()
			view, err = cl.Await(m.ctx, view.ID)
			r.await = time.Since(t1)
		}
		if err == nil {
			t2 := time.Now()
			r.payload, err = cl.Result(m.ctx, view.ID)
			r.fetched = time.Since(t2)
			m.b.spans.add("result", "client", 2+c, op.id, t2, r.fetched, nil)
		}
		r.total = time.Since(t0)
		m.b.spans.add("submit", "client", 2+c, op.id, t0, r.submit, nil)
		if r.await > 0 {
			m.b.spans.add("await", "client", 2+c, op.id, t0.Add(r.submit), r.await, nil)
		}
		m.b.spans.add("job "+op.spec.Bench+"/"+op.spec.Policy, "serve", 2+c, op.id, t0, r.total,
			map[string]any{"replay": replay, "first_touch": r.firstTouch, "cache_hit": view.CacheHit})
	}
	r.cacheHit = view.CacheHit
	if err == nil && replay && !view.CacheHit {
		err = fmt.Errorf("a replayed job was not a cache hit")
	}
	if err != nil {
		m.b.logf("FAIL: serve-mix %s/%s seed %d: %v", op.spec.Bench, op.spec.Policy, op.spec.Seed, err)
		r.payload = nil
	}
	return r
}

// plain reports whether a spec is a Table II run a direct harness job
// reproduces: neither degraded nor traced.
func plain(s serve.JobSpec) bool { return s.Faults == "" && !s.Trace }

// coldPayloads decodes the plain payloads among runs.
func coldPayloads(runs []opResult) ([]serve.ResultPayload, error) {
	var ps []serve.ResultPayload
	for _, r := range runs {
		if !plain(r.op.spec) {
			continue
		}
		var p serve.ResultPayload
		if err := json.Unmarshal(r.payload, &p); err != nil {
			return nil, fmt.Errorf("bench: cold payload: %w", err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// sampleJobs picks one plain cold payload per Table II benchmark, the
// k-th benchmark under S-NUCA for even k and TD-NUCA for odd k, and
// returns them with the harness jobs that must reproduce them.
func (m *mixState) sampleJobs() ([]harness.Job, []serve.ResultPayload, error) {
	all, err := coldPayloads(m.coldRuns)
	if err != nil {
		return nil, nil, err
	}
	var jobs []harness.Job
	var payloads []serve.ResultPayload
	for k, name := range workloads.Names() {
		want := []harness.PolicyKind{harness.SNUCA, harness.TDNUCA}[k%2]
		for _, p := range all {
			if j := specJob(p.Spec); j.Bench == name && j.Kind == want {
				jobs = append(jobs, j)
				payloads = append(payloads, p)
				break
			}
		}
	}
	return jobs, payloads, nil
}

// specJob is the harness job a normalized serve spec runs.
func specJob(s serve.JobSpec) harness.Job {
	cfg := harness.DefaultConfig()
	cfg.Factor = workloads.Factor(s.Factor)
	cfg.Seed = s.Seed
	cfg.FragEvery = s.FragEvery
	return harness.Job{Bench: s.Bench, Kind: harness.PolicyKind(s.Policy), Cfg: cfg}
}

// checkDigests compares each sampled payload with its direct run.
func (m *mixState) checkDigests(payloads []serve.ResultPayload, runs []jobRun) {
	for i, p := range payloads {
		d := fmt.Sprintf("%016x", runs[i].res.Digest())
		m.b.check(p.Digest == d, "serve-mix: payload %s/%s seed %d digest %s, direct run %s",
			p.Spec.Bench, p.Spec.Policy, p.Spec.Seed, p.Digest, d)
	}
}

func (m *mixState) verifyUntraced() {
	jobs, payloads, err := m.sampleJobs()
	if err != nil {
		m.b.fail("%v", err)
		return
	}
	runs, err := runJobs(jobs, 2)
	if err != nil {
		m.b.fail("serve-mix direct runs: %v", err)
		return
	}
	m.checkDigests(payloads, runs)
}

// verifyTraced re-simulates the sample through the traced pass, so the
// simulation layers of serve-mix are attributed too.
func (m *mixState) verifyTraced() error {
	jobs, payloads, err := m.sampleJobs()
	if err != nil {
		return err
	}
	var twins []jobRun
	_, err = m.b.cal.measure(func() (err error) {
		twins, err = runJobs(jobs, 1)
		return err
	})
	if err != nil {
		m.b.fail("serve-mix direct runs: %v", err)
		return nil
	}
	m.checkDigests(payloads, twins)
	traced := make([]tracedRun, len(jobs))
	for i, j := range jobs {
		if traced[i], err = m.b.traceJob(j, twins[i].res, 1000+i); err != nil {
			return err
		}
	}
	m.b.simLayerMetrics(twins, traced)
	m.b.simCounts(jobs, twins)
	return nil
}

// serveLayerMetrics reports the client and service layers of the traced
// round and its replay, and the TD-NUCA versus S-NUCA aggregates of the
// round's plain cold jobs.
func (m *mixState) serveLayerMetrics(res, replay []opResult, st serve.Stats) {
	var subCached, subCold, await, fetched, disk, memory []float64
	var cachedTotal, coldTotal []float64
	var cold []opResult
	seen := map[int]bool{}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, r := range res {
		if r.payload == nil {
			continue
		}
		fetched = append(fetched, us(r.fetched))
		if r.cacheHit {
			subCached = append(subCached, us(r.submit))
			cachedTotal = append(cachedTotal, us(r.total))
			continue
		}
		subCold = append(subCold, us(r.submit))
		await = append(await, ms(r.await))
		coldTotal = append(coldTotal, ms(r.total))
		if !seen[r.op.slot] {
			seen[r.op.slot] = true
			cold = append(cold, r)
		}
	}
	for _, r := range replay {
		if r.payload == nil {
			continue
		}
		if r.firstTouch {
			disk = append(disk, us(r.submit))
		} else {
			memory = append(memory, us(r.submit))
		}
	}
	b := m.b
	b.metrics["client.submit_cached_us"] = mean(subCached)
	b.metrics["client.submit_cold_us"] = mean(subCold)
	b.metrics["client.await_cold_ms"] = mean(await)
	b.metrics["client.result_us"] = mean(fetched)
	if len(cachedTotal) > 0 {
		b.metrics["client.cached_p50_us"] = median(cachedTotal)
		b.metrics["client.cached_p99_us"] = percentile(cachedTotal, 99)
	}
	if len(coldTotal) > 0 {
		b.metrics["client.cold_p50_ms"] = median(coldTotal)
	}
	b.metrics["serve.disk_hit_us"] = mean(disk)
	b.metrics["serve.coalesced_hit_us"] = mean(memory)
	b.metrics["serve.cache_hits"] = float64(st.CacheHits)
	b.metrics["serve.cache_misses"] = float64(st.CacheMisses)
	b.metrics["serve.coalesced"] = float64(st.Coalesced)
	b.metrics["serve.rejected"] = float64(st.Rejected)

	payloads, err := coldPayloads(cold)
	if err != nil {
		b.fail("%v", err)
		return
	}
	var jobs []harness.Job
	var runs []jobRun
	for _, p := range payloads {
		jobs = append(jobs, specJob(p.Spec))
		runs = append(runs, jobRun{res: p.Result})
	}
	b.metrics["sim.td_speedup"], b.metrics["sim.td_llc_ratio"] = tdVersusS(jobs, runs)
}

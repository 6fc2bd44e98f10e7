// Command tdnuca-load is the chaos soak harness for the experiment
// service: N concurrent retrying clients push M jobs (drawn from a
// seeded spec pool) through a seeded fault-injecting transport at an
// in-process server, then the harness asserts the stack's promises
// held under fire:
//
//  1. Every job lands: no client gives up through 5xxs, connection
//     resets, truncations and injected latency.
//  2. Exactly-once simulation: the server runs one simulation per
//     unique content address, no matter how many duplicate and
//     resubmitted POSTs the chaos provoked.
//  3. Byte fidelity: every payload a client receives is byte-identical
//     per content address, and its digest equals a direct in-process
//     harness run of the same job.
//  4. Integrity: after a corruption drill (bit-flipping on-disk cache
//     payloads and restarting the server over the same directory), the
//     corrupted entries are quarantined and re-simulated — a corrupt
//     payload is never served.
//  5. Hygiene: the full drain leaks no goroutines.
//
// The run is reproducible: one -seed fixes the spec pool, the job
// draw, every client's backoff jitter and every chaos transport's
// fault schedule. The report (JSON, schema tdnuca-load/v1) goes to
// -out or stdout; the exit status is non-zero if any invariant failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tdnuca/internal/chaos"
	"tdnuca/internal/client"
	"tdnuca/internal/faults"
	"tdnuca/internal/harness"
	"tdnuca/internal/serve"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
	"tdnuca/internal/workloads"
)

// options parameterizes one soak run.
type options struct {
	Clients  int     `json:"clients"`
	Jobs     int     `json:"jobs"`
	Seed     uint64  `json:"seed"`
	Severity int     `json:"severity"`
	Workers  int     `json:"workers"`
	QueueCap int     `json:"queue_cap"`
	Factor   float64 `json:"factor"`
	Corrupt  int     `json:"corrupt"` // cache entries to damage in the drill
	CacheDir string  `json:"-"`       // "" = fresh temp dir
}

// Report is the machine-readable outcome, schema tdnuca-load/v1.
type Report struct {
	Schema      string          `json:"schema"`
	Options     options         `json:"options"`
	UniqueSpecs int             `json:"unique_specs"`
	Server      serve.Stats     `json:"server"`
	Chaos       chaos.Counters  `json:"chaos"`
	Client      client.Counters `json:"client"`
	Corruption  CorruptionDrill `json:"corruption"`
	Violations  []string        `json:"violations,omitempty"`
	Pass        bool            `json:"pass"`
}

// CorruptionDrill summarizes the restart-over-damaged-cache phase.
type CorruptionDrill struct {
	Corrupted      int  `json:"corrupted"`
	Quarantined    int  `json:"quarantined"`
	Resimulated    int  `json:"resimulated"`
	PayloadsStable bool `json:"payloads_stable"` // re-simulated bytes == originals
}

func main() {
	opts := options{}
	flag.IntVar(&opts.Clients, "clients", 8, "concurrent soak clients")
	flag.IntVar(&opts.Jobs, "jobs", 1000, "total jobs across all clients")
	flag.Uint64Var(&opts.Seed, "seed", 1, "master seed: spec draw, client jitter, chaos schedules")
	flag.IntVar(&opts.Severity, "severity", 2, "chaos ladder severity 0..3")
	flag.IntVar(&opts.Workers, "workers", 4, "server simulation workers")
	flag.IntVar(&opts.QueueCap, "queue", 256, "server admission queue capacity")
	flag.Float64Var(&opts.Factor, "factor", 1.0/128.0, "workload scale factor")
	flag.IntVar(&opts.Corrupt, "corrupt", 3, "cache entries to bit-flip in the corruption drill")
	flag.StringVar(&opts.CacheDir, "cache-dir", "", "cache directory (default: a fresh temp dir)")
	out := flag.String("out", "", "report path (default: stdout)")
	flag.Parse()

	rep, err := runLoad(opts)
	if err != nil {
		log.Fatalf("tdnuca-load: %v", err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			log.Fatal(err)
		}
	} else {
		os.Stdout.Write(b)
	}
	if !rep.Pass {
		log.Fatalf("tdnuca-load: FAIL (%d violations)", len(rep.Violations))
	}
	fmt.Fprintf(os.Stderr, "tdnuca-load: PASS — %d jobs, %d clients, %d unique specs, %d simulations, %d faults injected, %d quarantined\n",
		opts.Jobs, opts.Clients, rep.UniqueSpecs, rep.Server.Completed, rep.Chaos.Injected(), rep.Corruption.Quarantined)
}

// specPool builds the deterministic set of distinct jobs the soak draws
// from: every Table II benchmark under both baseline and TD-NUCA
// policies, plus degraded (fault-injected) and traced variants.
func specPool(factor float64) []serve.JobSpec {
	var pool []serve.JobSpec
	for _, bench := range workloads.Names() {
		for _, policy := range []string{"snuca", "tdnuca"} {
			pool = append(pool, serve.JobSpec{Bench: bench, Policy: policy, Factor: factor})
		}
	}
	pool = append(pool,
		serve.JobSpec{Bench: "Gauss", Policy: "tdnuca", Factor: factor, Faults: "bank=3@1000"},
		serve.JobSpec{Bench: "Kmeans", Policy: "tdnuca", Factor: factor, Faults: "link=1-2@2000"},
		serve.JobSpec{Bench: "MD5", Policy: "tdnuca", Factor: factor, Trace: true},
		serve.JobSpec{Bench: "Jacobi", Policy: "snuca", Factor: factor, Trace: true},
	)
	return pool
}

// poolKind maps the pool's policy aliases to harness kinds.
func poolKind(policy string) harness.PolicyKind {
	if policy == "tdnuca" {
		return harness.TDNUCA
	}
	return harness.SNUCA
}

// payloadRecord is one client's observation of one job's result bytes.
type payloadRecord struct {
	job     int // index into the job list
	id      string
	payload []byte
}

// soakClient runs its share of the job list and reports every payload
// it saw plus the first error (nil if all landed).
type soakClient struct {
	cl      *client.Client
	tr      *chaos.Transport
	records []payloadRecord
	err     error
}

func runLoad(opts options) (*Report, error) {
	if opts.Clients < 1 || opts.Jobs < 1 {
		return nil, fmt.Errorf("need at least 1 client and 1 job")
	}
	if opts.CacheDir == "" {
		dir, err := os.MkdirTemp("", "tdnuca-load-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.CacheDir = dir
	}
	rep := &Report{Schema: "tdnuca-load/v1", Options: opts}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	pool := specPool(opts.Factor)
	if opts.Jobs < len(pool) {
		pool = pool[:opts.Jobs] // tiny runs: keep "every pool entry appears" true
	}
	rep.UniqueSpecs = len(pool)

	// The job list: Jobs draws from the pool, seeded. Every pool entry is
	// forced to appear at least once so the fidelity check always covers
	// the degraded and traced variants.
	rng := sim.NewRNG(opts.Seed)
	jobList := make([]serve.JobSpec, opts.Jobs)
	for i := range jobList {
		if i < len(pool) {
			jobList[i] = pool[i]
			continue
		}
		jobList[i] = pool[rng.Uint64()%uint64(len(pool))]
	}

	goroutinesBefore := runtime.NumGoroutine()
	srvCfg := serve.Config{Workers: opts.Workers, QueueCap: opts.QueueCap, CacheDir: opts.CacheDir}
	s, err := serve.New(srvCfg)
	if err != nil {
		return nil, err
	}
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())

	// Phase 1: the concurrent soak. Each client gets its own chaos
	// transport and jitter stream, seeds derived from the master seed so
	// the whole storm replays bit-for-bit.
	clients := make([]*soakClient, opts.Clients)
	var wg sync.WaitGroup
	for c := range clients {
		ccfg := chaos.LadderAt(opts.Seed^uint64(c+1)*0x9e3779b97f4a7c15, opts.Severity)
		tr, err := chaos.NewTransport(ts.Client().Transport, ccfg)
		if err != nil {
			ts.Close()
			return nil, err
		}
		sc := &soakClient{
			tr: tr,
			cl: client.New(client.Config{
				BaseURL:     ts.URL,
				HTTP:        &http.Client{Transport: tr},
				Seed:        opts.Seed + uint64(c)*7919,
				MaxAttempts: 25,
			}),
		}
		clients[c] = sc
		wg.Add(1)
		go func(idx int, sc *soakClient) {
			defer wg.Done()
			for j := idx; j < len(jobList); j += opts.Clients {
				res, err := sc.cl.Run(context.Background(), jobList[j])
				if err != nil {
					if sc.err == nil {
						sc.err = fmt.Errorf("job %d (%s/%s): %w", j, jobList[j].Bench, jobList[j].Policy, err)
					}
					continue
				}
				sc.records = append(sc.records, payloadRecord{job: j, id: res.ID, payload: res.Payload})
			}
		}(c, sc)
	}
	wg.Wait()

	// Invariant 1: every job landed.
	for c, sc := range clients {
		if sc.err != nil {
			violate("client %d: %v", c, sc.err)
		}
		rep.Chaos = rep.Chaos.Add(sc.tr.Counters())
		cc := sc.cl.Counters()
		rep.Client.Requests += cc.Requests
		rep.Client.Retries += cc.Retries
		rep.Client.Resubmits += cc.Resubmits
		rep.Client.StreamResumes += cc.StreamResumes
		rep.Client.RetryAfterWaits += cc.RetryAfterWaits
	}

	// Invariant 3 (first half): per-address byte identity across every
	// observation by every client. Also map pool specs to their ids via
	// the forced first occurrences.
	canonical := map[string][]byte{}
	poolID := make([]string, len(pool))
	for c, sc := range clients {
		for _, r := range sc.records {
			if r.job < len(pool) {
				poolID[r.job] = r.id
			}
			if prev, ok := canonical[r.id]; ok {
				if !bytes.Equal(prev, r.payload) {
					violate("job %s: client %d received different bytes than an earlier client", r.id, c)
				}
				continue
			}
			canonical[r.id] = r.payload
		}
	}

	// Invariant 2: exactly one simulation per unique content address.
	snap := s.Snapshot()
	rep.Server = snap
	if got, want := snap.Completed, uint64(len(canonical)); got != want {
		violate("server ran %d simulations for %d unique addresses; exactly-once broken", got, want)
	}
	if snap.Failed > 0 || snap.Canceled > 0 {
		violate("server reports %d failed / %d canceled jobs", snap.Failed, snap.Canceled)
	}
	if opts.Severity > 0 && rep.Chaos.Injected() == 0 {
		violate("chaos severity %d injected zero faults; the soak proved nothing", opts.Severity)
	}

	// Invariant 3 (second half): digest fidelity against direct runs.
	for i, spec := range pool {
		if poolID[i] == "" {
			violate("spec %s/%s: no client observed a payload", spec.Bench, spec.Policy)
			continue
		}
		var p serve.ResultPayload
		if err := json.Unmarshal(canonical[poolID[i]], &p); err != nil {
			violate("payload %s: %v", poolID[i], err)
			continue
		}
		want, err := directDigest(spec, opts)
		if err != nil {
			violate("direct run %s/%s: %v", spec.Bench, spec.Policy, err)
			continue
		}
		if p.Digest != want {
			violate("spec %s/%s: served digest %s != direct %s", spec.Bench, spec.Policy, p.Digest, want)
		}
	}

	// Drain #1 — also flushes the cache index for the drill.
	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = s.Drain(dctx)
	cancel()
	if err != nil {
		violate("drain: %v", err)
	}
	ts.Close()

	// Invariant 4: the corruption drill.
	rep.Corruption = corruptionDrill(opts, pool, canonical, violate)

	// Invariant 5: everything is gone.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			violate("goroutines leaked: %d before, %d after drain", goroutinesBefore, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	rep.Pass = len(rep.Violations) == 0
	return rep, nil
}

// directDigest runs the spec's simulation directly (no server) and
// renders its digest the way payloads do.
func directDigest(spec serve.JobSpec, opts options) (string, error) {
	cfg := harness.DefaultConfig()
	cfg.Factor = workloads.Factor(opts.Factor)
	job := harness.Job{Bench: spec.Bench, Kind: poolKind(spec.Policy), Cfg: cfg}
	if spec.Faults != "" {
		sc, err := faults.Parse(spec.Faults)
		if err != nil {
			return "", err
		}
		job.Faults = sc
	}
	if spec.Trace {
		job.Trace = &trace.Options{}
	}
	r, err := harness.Run(context.Background(), job)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", r.Digest()), nil
}

// corruptionDrill damages cached payloads on disk, restarts the server
// over the same directory, resubmits every pool spec through a fresh
// client, and proves quarantine + re-simulation: the corrupted bytes
// are never served and the re-simulated payloads equal the originals.
func corruptionDrill(opts options, pool []serve.JobSpec, canonical map[string][]byte, violate func(string, ...any)) CorruptionDrill {
	drill := CorruptionDrill{PayloadsStable: true}
	if opts.Corrupt <= 0 {
		return drill
	}
	entries, err := filepath.Glob(filepath.Join(opts.CacheDir, "*.payload"))
	if err != nil || len(entries) == 0 {
		violate("corruption drill: no cache payloads on disk (%v)", err)
		return drill
	}
	sort.Strings(entries)
	n := opts.Corrupt
	if n > len(entries) {
		n = len(entries)
	}
	victims := make([]string, 0, n) // job ids corrupted
	for _, path := range entries[:n] {
		b, err := os.ReadFile(path)
		if err != nil {
			violate("corruption drill: read %s: %v", path, err)
			continue
		}
		b[len(b)/2] ^= 0x40 // bit-flip mid-payload, past the header line
		if err := os.WriteFile(path, b, 0o644); err != nil {
			violate("corruption drill: write %s: %v", path, err)
			continue
		}
		victims = append(victims, strings.TrimSuffix(filepath.Base(path), ".payload"))
		drill.Corrupted++
	}

	s, err := serve.New(serve.Config{Workers: opts.Workers, QueueCap: opts.QueueCap, CacheDir: opts.CacheDir})
	if err != nil {
		violate("corruption drill: restart: %v", err)
		return drill
	}
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	cl := client.New(client.Config{BaseURL: ts.URL, Seed: opts.Seed ^ 0xdead})

	// Resubmit every unique spec; the damaged ones must re-simulate, the
	// healthy ones must still disk-hit.
	for _, spec := range pool {
		res, err := cl.Run(context.Background(), spec)
		if err != nil {
			violate("corruption drill: %s/%s: %v", spec.Bench, spec.Policy, err)
			continue
		}
		orig, ok := canonical[res.ID]
		if !ok {
			violate("corruption drill: job %s has no phase-1 payload", res.ID)
			continue
		}
		if !bytes.Equal(orig, res.Payload) {
			drill.PayloadsStable = false
			violate("corruption drill: job %s: restart served different bytes", res.ID)
		}
	}
	snap := s.Snapshot()
	drill.Quarantined = int(snap.CacheQuarantined)
	drill.Resimulated = int(snap.Completed)
	if drill.Quarantined < drill.Corrupted {
		violate("corruption drill: corrupted %d entries but only %d quarantined", drill.Corrupted, drill.Quarantined)
	}
	if drill.Resimulated != drill.Corrupted {
		violate("corruption drill: %d re-simulations for %d corrupted entries", drill.Resimulated, drill.Corrupted)
	}
	// The quarantine must leave evidence on disk.
	sort.Strings(victims)
	for _, id := range victims {
		if _, err := os.Stat(filepath.Join(opts.CacheDir, id+".payload.corrupt")); err != nil {
			violate("corruption drill: job %s: no .corrupt quarantine file (%v)", id, err)
		}
	}

	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = s.Drain(dctx)
	cancel()
	if err != nil {
		violate("corruption drill: drain: %v", err)
	}
	ts.Close()
	return drill
}

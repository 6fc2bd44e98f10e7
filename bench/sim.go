package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tdnuca/internal/core"
	"tdnuca/internal/harness"
	"tdnuca/internal/machine"
	"tdnuca/internal/policy"
	"tdnuca/internal/rnuca"
	"tdnuca/internal/taskrt"
	"tdnuca/internal/workgen"
	"tdnuca/internal/workloads"
)

// The two simulation workloads. paper-suite is what users run to
// regenerate the paper's figures: Table II x {S-NUCA, R-NUCA, TD-NUCA} at
// the default configuration on 2 workers; it is dominated by the machine
// access path, NoC contention and the LLC directory. taskgraph-fine is a
// generated DAG of 32,768 one-block tasks under TD-NUCA and then S-NUCA:
// fine-grained tasks make the runtime and the TD-NUCA hooks dominate,
// while the S-NUCA twin of the same DAG bypasses the hooks.

var simKinds = []harness.PolicyKind{harness.SNUCA, harness.RNUCA, harness.TDNUCA}

// simConfig is harness.DefaultConfig with the workload's factor and seed.
func simConfig(c config) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Factor = c.factor()
	cfg.Seed = c.seed
	return cfg
}

func paperJobs(c config) []harness.Job {
	var jobs []harness.Job
	for _, bench := range workloads.Names() {
		for _, k := range simKinds {
			jobs = append(jobs, harness.Job{Bench: bench, Kind: k, Cfg: simConfig(c)})
		}
	}
	return jobs
}

// taskgraphName is the generated DAG: 256 layers of 128 tasks, each
// reading 6 parents from the last 8 layers; 2048 B per task is one cache
// block at the default factor.
func taskgraphName(seed uint64) string {
	return fmt.Sprintf("gen:seed=%d,depth=256,width=128,fanout=6,reuse=8,bytes=2048", seed)
}

func taskgraphJobs(c config) []harness.Job {
	name := taskgraphName(c.seed)
	return []harness.Job{
		{Bench: name, Kind: harness.TDNUCA, Cfg: simConfig(c)},
		{Bench: name, Kind: harness.SNUCA, Cfg: simConfig(c)},
	}
}

// A paper-suite repetition runs in slices of two Table II benchmarks
// under all three policies (6 jobs on 2 workers, about 1 s), a
// taskgraph-fine one in slices of one job; the drift calibrator reads the
// host between slices.
func runPaperSuite(b *bench) error   { return b.measureSim(paperJobs(b.cfg), 2, 2*len(simKinds)) }
func runTaskgraph(b *bench) error    { return b.measureSim(taskgraphJobs(b.cfg), 1, 1) }
func tracePaperSuite(b *bench) error { return b.traceSim(paperJobs(b.cfg), 2) }
func traceTaskgraph(b *bench) error  { return b.traceSim(taskgraphJobs(b.cfg), 1) }

// jobRun is one simulation job's result, start and host time.
type jobRun struct {
	res   harness.Result
	start time.Time
	took  time.Duration
}

// runJobs executes the jobs on the given number of goroutines, each job
// through its own harness.RunMany call so that its host time is known,
// and returns the runs in job order. It is the benchmark's only entry
// into the harness.
func runJobs(jobs []harness.Job, workers int) ([]jobRun, error) {
	runs := make([]jobRun, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				runs[i].start = time.Now()
				rs, err := harness.RunMany(jobs[i:i+1], 1)
				runs[i].took = time.Since(runs[i].start)
				if err != nil {
					errs[i] = err
					continue
				}
				runs[i].res = rs[0]
			}
		}()
	}
	wg.Wait()
	return runs, errors.Join(errs...)
}

// digestRuns fingerprints a batch the way the golden files do.
func digestRuns(runs []jobRun) harness.SuiteDigest {
	s := harness.Suite{}
	for _, r := range runs {
		if s[r.res.Benchmark] == nil {
			s[r.res.Benchmark] = map[harness.PolicyKind]harness.Result{}
		}
		s[r.res.Benchmark][r.res.Policy] = r.res
	}
	return harness.DigestSuite(s)
}

// simRun is one simulation wired from the packages' public functions the
// way harness.Run wires it: spec, machine, policy and runtime. With a
// non-nil layerTimes the policy and hooks are wrapped in timers.
type simRun struct {
	spec     workloads.Spec
	m        *machine.Machine
	rt       *taskrt.Runtime
	newStart time.Time // machine.New
	newTook  time.Duration
}

// resolveSpec looks a benchmark up by name like the harness does: Table
// II first, then the workload generator.
func resolveSpec(bench string, f workloads.Factor) (workloads.Spec, error) {
	if spec, ok := workloads.Get(bench, f); ok {
		return spec, nil
	}
	p, err := workgen.Parse(bench)
	if err != nil {
		return workloads.Spec{}, err
	}
	return workgen.New(p, f)
}

func newSimRun(j harness.Job, lt *layerTimes) (*simRun, error) {
	spec, err := resolveSpec(j.Bench, j.Cfg.Factor)
	if err != nil {
		return nil, err
	}
	cfg := j.Cfg
	t0 := time.Now()
	m, err := machine.New(&cfg.Arch, cfg.FragEvery, cfg.Seed)
	if err != nil {
		return nil, err
	}
	newTook := time.Since(t0)
	var pol machine.Policy
	var hooks taskrt.Hooks = taskrt.NopHooks{}
	switch j.Kind {
	case harness.SNUCA:
		pol = policy.NewSNUCA()
	case harness.RNUCA:
		pol = rnuca.New(m)
	case harness.TDNUCA:
		mgr := core.NewManager(m, core.Full)
		mgr.EagerFlush = cfg.EagerFlush
		pol, hooks = mgr, mgr
	default:
		return nil, fmt.Errorf("bench: policy %q is not traced", j.Kind)
	}
	if lt != nil {
		pol, hooks = lt.wrapPolicy(pol), lt.wrapHooks(hooks)
	}
	m.SetPolicy(pol)
	return &simRun{spec: spec, m: m, rt: taskrt.New(m, hooks, cfg.RT), newStart: t0, newTook: newTook}, nil
}

// more reports whether another repetition runs: the first minReps
// always do, then one more while a repetition of the median raw length
// so far still ends within the time budget.
func (b *bench) more(start time.Time, raws []float64) bool {
	if len(raws) < b.cfg.minReps() {
		return true
	}
	return !b.cfg.toy && time.Since(start).Seconds()+median(raws) <= b.cfg.seconds
}

// timeSetups times n set-ups and appends their raw seconds to raws. The
// set-ups of a run are spread over it, a few before each repetition, so
// that they see the same host as the kernel readings that compensate them.
func timeSetups(raws []float64, n int, setup func() error) ([]float64, error) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return raws, fmt.Errorf("bench: set-up: %w", err)
		}
		raws = append(raws, time.Since(t0).Seconds())
	}
	return raws, nil
}

// report sets the end-to-end metrics from the raw seconds of the set-ups
// and repetitions and the MB each repetition allocated: host times are
// medians multiplied by the run's drift-compensation factor.
func (b *bench) report(setups, reps, allocs []float64) {
	f := b.cal.factor()
	b.metrics["setup_s"] = median(setups) * f
	b.metrics["wall_s"] = median(reps) * f
	b.metrics["alloc_mb"] = median(allocs)
	b.metrics["max_rss_mb"] = maxRSSMB()
	b.logf("%s: raw set-up %.6fs, raw repetition %.3fs over %d; kernel %.1fµs over %d readings, factor %.4f",
		b.cfg.workload, median(setups), median(reps), len(reps), b.cal.reading()/1e3, len(b.cal.readings), f)
}

// measureSim is the untraced measurement of a simulation workload. Its
// set-up builds every job's inputs (spec, machine, policy, runtime) up to
// the first simulated access. Whole repetitions run until the time budget
// is spent, each after its set-ups and under the drift calibrator in
// slices of perSlice jobs, and every repetition must digest identically.
func (b *bench) measureSim(jobs []harness.Job, workers, perSlice int) error {
	setup := func() error {
		for _, j := range jobs {
			if _, err := newSimRun(j, nil); err != nil {
				return err
			}
		}
		return nil
	}
	var setups, raws, allocs []float64
	var ref harness.SuiteDigest
	start := time.Now()
	for rep := 0; b.more(start, raws); rep++ {
		runtime.GC()
		var err error
		if setups, err = timeSetups(setups, b.cfg.setupsPerRep(), setup); err != nil {
			return err
		}
		a0 := allocatedMB()
		var runs []jobRun
		var slices []func() error
		for lo := 0; lo < len(jobs); lo += perSlice {
			part := jobs[lo:min(lo+perSlice, len(jobs))]
			slices = append(slices, func() error {
				rs, err := runJobs(part, workers)
				runs = append(runs, rs...)
				return err
			})
		}
		raw, err := b.cal.measure(slices...)
		raws = append(raws, raw.Seconds())
		allocs = append(allocs, allocatedMB()-a0)
		b.attempted += len(jobs)
		if err != nil {
			b.fail("%s repetition %d: %v", b.cfg.workload, rep, err)
			continue
		}
		d := digestRuns(runs)
		if len(ref.Entries) == 0 {
			ref = d
		}
		b.check(d.Equal(ref), "%s repetition %d digest %016x != the first's %016x", b.cfg.workload, rep, d.Hash, ref.Hash)
		b.logf("%s rep %d: raw %.3fs alloc %.1f MB digest %016x", b.cfg.workload, rep, raw.Seconds(), allocs[len(allocs)-1], d.Hash)
	}
	b.report(setups, raws, allocs)
	return nil
}

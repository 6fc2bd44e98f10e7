package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tdnuca/internal/faults"
	"tdnuca/internal/trace"
	"tdnuca/internal/workloads"
)

// Job names one simulation: a benchmark executed under a policy with a
// configuration, optionally on faulted hardware and optionally traced.
// Run executes one Job and RunMany a batch of them; every multi-run
// experiment (suites, sweeps, ablations, the resilience study) is
// expressed as a batch of Jobs.
type Job struct {
	Bench string
	Kind  PolicyKind
	Cfg   Config

	// Faults is the fault scenario injected at task-dispatch boundaries
	// (DESIGN.md §11); nil runs healthy hardware.
	Faults *faults.Scenario
	// Trace attaches the event tracer with these options (DESIGN.md §10);
	// nil runs untraced. Tracing never moves the Result's digest.
	Trace *trace.Options
}

// DefaultWorkers is the worker-pool size used when a caller passes
// workers <= 0: one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Validate is the exported form of the up-front job check, for callers
// that admit jobs long before running them: the experiment service
// (internal/serve) rejects a malformed submission at the HTTP boundary
// with exactly the error Run would have produced.
func (j Job) Validate() error { return j.validate() }

// validate rejects a malformed job before any simulation starts, so
// RunMany reports configuration errors deterministically (lowest job
// index first) regardless of scheduling. Every branch but the unknown
// policy carries the "harness: <bench> under <kind>" context so a
// failing job in a big batch is identifiable from the error alone
// (pinned by TestJobValidateErrorFormat).
func (j Job) validate() error {
	if err := checkBench(j.Bench); err != nil {
		return identify(j.Bench, j.Kind, err)
	}
	return j.check()
}

// check is everything validate checks except the benchmark name. Run
// calls it alone because run's resolveSpec reports a bad name with the
// same error; admission (Validate, RunMany's up-front pass) adds
// checkBench, which names the error without building the workload.
func (j Job) check() error {
	p, err := lookupPolicy(j.Kind)
	if err != nil {
		return err
	}
	if err := j.Cfg.Arch.Validate(); err != nil {
		return identify(j.Bench, j.Kind, err)
	}
	if err := p.checkRRT(&j.Cfg.Arch); err != nil {
		return identify(j.Bench, j.Kind, err)
	}
	if j.Faults != nil {
		if err := j.Faults.Validate(&j.Cfg.Arch); err != nil {
			return identify(j.Bench, j.Kind, err)
		}
	}
	return nil
}

// batchError picks the canonical error of a finished batch: the
// lowest-index error that is not a cancellation echo. A job aborted
// because another job's failure canceled the pool wraps
// context.Canceled and only ever exists alongside that originating
// failure, so skipping those keeps the reported error deterministic:
// the job that actually failed.
func batchError(errs []error) error {
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return err
	}
	return canceled
}

// identify tags a failure with the job that produced it, so a batch
// error is attributable without replaying the batch. Cancellation
// echoes pass through untouched: they already carry the job tag (see
// wrapCanceled) and batchError filters them out anyway.
func identify(bench string, kind PolicyKind, err error) error {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("harness: %s under %s: %w", bench, kind, err)
}

// RunMany executes the jobs on a worker pool of up to workers goroutines
// (workers <= 0 means DefaultWorkers) and returns the results in job
// order. Each job gets a fully independent machine and runtime, so runs
// are bit-for-bit identical to executing the same jobs one by one with
// Run — results depend only on the Job, never on scheduling.
//
// Errors are deterministic: every job is validated up front and the
// lowest-index error is returned before any work starts. Should a run
// nevertheless fail mid-flight, the first failure cancels the pool's
// context, so in-flight runs abort at their next dispatch boundary (see
// Run) and the batch drains promptly; RunMany then returns the
// lowest-index error of a job that itself failed. It never leaks
// goroutines: it returns only after every worker has exited.
func RunMany(jobs []Job, workers int) ([]Result, error) {
	for _, j := range jobs {
		if err := j.validate(); err != nil {
			return nil, err
		}
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				r, err := run(ctx, jobs[i]) // validated above
				if err != nil {
					errs[i] = identify(jobs[i].Bench, jobs[i].Kind, err)
					cancel()
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if err := batchError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// RunSuite executes every Table II benchmark under each given policy,
// with proto's configuration, fault scenario and tracing (its Bench and
// Kind are ignored), on a worker pool of up to workers goroutines
// (<= 0 means DefaultWorkers). Each run owns its machine and runtime, so
// the Suite — and its DigestSuite — is independent of the worker count.
func RunSuite(proto Job, workers int, kinds ...PolicyKind) (Suite, error) {
	jobs := suiteJobs(proto, kinds...)
	results, err := RunMany(jobs, workers)
	if err != nil {
		return nil, err
	}
	return assembleSuite(jobs, results), nil
}

// suiteJobs lists every Table II benchmark under each of kinds (the
// benchmark-major order RunSuite and the figures run), with proto's
// configuration, fault scenario and tracing.
func suiteJobs(proto Job, kinds ...PolicyKind) []Job {
	jobs := make([]Job, 0, len(workloads.Names())*len(kinds))
	for _, bench := range workloads.Names() {
		for _, k := range kinds {
			j := proto
			j.Bench, j.Kind = bench, k
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// assembleSuite indexes RunMany results back into the Suite map.
func assembleSuite(jobs []Job, results []Result) Suite {
	s := make(Suite)
	for i, j := range jobs {
		per := s[j.Bench]
		if per == nil {
			per = make(map[PolicyKind]Result)
			s[j.Bench] = per
		}
		per[j.Kind] = results[i]
	}
	return s
}

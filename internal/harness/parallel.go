package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tdnuca/internal/workloads"
)

// Job names one simulation: a benchmark executed under a policy with a
// configuration. RunMany executes a batch of them concurrently; every
// multi-run experiment (suites, sweeps, ablations) is expressed as a
// batch of Jobs.
type Job struct {
	Bench string
	Kind  PolicyKind
	Cfg   Config
}

// DefaultWorkers is the worker-pool size used when a caller passes
// workers <= 0: one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Validate is the exported form of the up-front job check, for callers
// that admit jobs long before running them: the experiment service
// (internal/serve) rejects a malformed submission at the HTTP boundary
// with exactly the error the pool would have produced.
func (j Job) Validate() error { return j.validate() }

// validate rejects a malformed job before any goroutine is spawned, so
// RunMany reports configuration errors deterministically (lowest job
// index first) regardless of scheduling. Every branch carries the
// "harness: <bench> under <kind>" context so a failing job in a big
// batch is identifiable from the error alone (pinned by
// TestJobValidateErrorFormat).
func (j Job) validate() error {
	if _, err := resolveSpec(j.Bench, j.Cfg.Factor); err != nil {
		return fmt.Errorf("harness: %s under %s: %w", j.Bench, j.Kind, err)
	}
	switch j.Kind {
	case SNUCA, RNUCA, TDNUCA, TDBypassOnly, TDNoISA:
	default:
		return fmt.Errorf("harness: unknown policy %q", j.Kind)
	}
	if err := j.Cfg.Arch.Validate(); err != nil {
		return fmt.Errorf("harness: %s under %s: %w", j.Bench, j.Kind, err)
	}
	return nil
}

// runPoolCtx is the one worker pool under every *Many entry point: it
// fans jobs out to up to `workers` goroutines, each running `one` with
// the pool's context. The first failure cancels that context, so
// in-flight runs abort at their next task-dispatch boundary (see
// RunCtx) and a failing batch drains promptly instead of simulating
// results nobody will read. The pool never leaks goroutines: it returns
// only after every worker has exited.
//
// The returned error is deterministic wherever the failure itself is:
// the lowest-index job that failed on its own merits wins; errors that
// merely say "aborted because the context ended" (another job's failure
// or the caller canceling ctx) are reported only when no such failure
// exists.
func runPoolCtx[J, R any](ctx context.Context, jobs []J, workers int, one func(context.Context, J) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, ctxCause(ctx)
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]R, len(jobs))
	errs := make([]error, len(jobs))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || cctx.Err() != nil {
					return
				}
				r, err := one(cctx, jobs[i])
				if err != nil {
					errs[i] = err
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

// batchError picks the canonical error of a finished batch: the
// lowest-index error that is not a cancellation echo. A job aborted
// because the pool context ended wraps context.Canceled (or the
// caller's DeadlineExceeded) and only ever exists alongside either the
// originating failure or a caller-side cancellation, so skipping those
// keeps the reported error deterministic: the job that actually failed.
func batchError(errs []error) error {
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return err
	}
	return canceled
}

// identify tags a mid-flight failure with the job that produced it, so a
// batch error is attributable without replaying the batch. Cancellation
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
// are bit-for-bit identical to executing the same jobs sequentially —
// results depend only on (Bench, Kind, Cfg), never on scheduling.
//
// Errors are deterministic: every job is validated up front and the
// lowest-index error is returned before any work starts. Should a run
// nevertheless fail mid-flight, the pool cancels the remaining in-flight
// runs at their next dispatch boundary, drains, and returns the
// lowest-index error of a job that itself failed. RunMany never leaks
// goroutines: it returns only after every worker has exited.
func RunMany(jobs []Job, workers int) ([]Result, error) {
	return RunManyCtx(context.Background(), jobs, workers)
}

// RunManyCtx is RunMany under a context: canceling ctx aborts queued and
// in-flight jobs at their next task-dispatch boundary. It is the batch
// primitive the experiment service runs on — per-job StallError budgets
// (Config.RT.MaxCycles) plus batch-level cancellation.
func RunManyCtx(ctx context.Context, jobs []Job, workers int) ([]Result, error) {
	for _, j := range jobs {
		if err := j.validate(); err != nil {
			return nil, err
		}
	}
	return runPoolCtx(ctx, jobs, workers, func(ctx context.Context, j Job) (Result, error) {
		r, err := RunCtx(ctx, j.Bench, j.Kind, j.Cfg)
		return r, identify(j.Bench, j.Kind, err)
	})
}

// RunDegradedMany is RunMany for fault-injected jobs: the batch runs on
// a worker pool of up to workers goroutines (<= 0 means DefaultWorkers)
// and results come back in job order, bit-for-bit identical to a
// sequential execution. Validation (including scenario validation) is
// done up front so errors are deterministic.
func RunDegradedMany(jobs []DegradedJob, workers int) ([]DegradedResult, error) {
	return RunDegradedManyCtx(context.Background(), jobs, workers)
}

// RunDegradedManyCtx is RunDegradedMany under a context, with
// RunManyCtx's first-failure and cancellation semantics.
func RunDegradedManyCtx(ctx context.Context, jobs []DegradedJob, workers int) ([]DegradedResult, error) {
	for _, j := range jobs {
		if err := j.validate(); err != nil {
			return nil, err
		}
	}
	return runPoolCtx(ctx, jobs, workers, func(ctx context.Context, j DegradedJob) (DegradedResult, error) {
		r, err := RunDegradedCtx(ctx, j.Bench, j.Kind, j.Cfg, j.Scenario)
		return r, identify(j.Bench, j.Kind, err)
	})
}

// suiteJobs builds the benchmark x policy cross-product in canonical
// order (Table II benchmark order, then the given policy order).
func suiteJobs(cfg Config, kinds []PolicyKind) []Job {
	jobs := make([]Job, 0, len(workloads.Names())*len(kinds))
	for _, bench := range workloads.Names() {
		for _, k := range kinds {
			jobs = append(jobs, Job{Bench: bench, Kind: k, Cfg: cfg})
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

// RunSuiteParallel executes every Table II benchmark under each policy on
// a worker pool of up to workers goroutines (<= 0 means DefaultWorkers).
// The resulting Suite is identical to RunSuiteSequential's: each run owns
// its machine and runtime, so DigestSuite fingerprints match bit for bit.
func RunSuiteParallel(cfg Config, workers int, kinds ...PolicyKind) (Suite, error) {
	jobs := suiteJobs(cfg, kinds)
	results, err := RunMany(jobs, workers)
	if err != nil {
		return nil, err
	}
	return assembleSuite(jobs, results), nil
}

// RunSuiteSequential executes the suite one run at a time on the calling
// goroutine — the reference implementation the equivalence tests compare
// RunSuiteParallel against, and the right choice when profiling a single
// run or running inside an already-parallel caller.
func RunSuiteSequential(cfg Config, kinds ...PolicyKind) (Suite, error) {
	s := make(Suite)
	for _, bench := range workloads.Names() {
		s[bench] = make(map[PolicyKind]Result, len(kinds))
		for _, k := range kinds {
			r, err := Run(bench, k, cfg)
			if err != nil {
				return nil, err
			}
			s[bench][k] = r
		}
	}
	return s, nil
}

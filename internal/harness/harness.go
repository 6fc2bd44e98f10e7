// Package harness runs the paper's experiments: it wires a benchmark, a
// NUCA policy, the machine and the runtime together, collects every
// metric the evaluation section reports, and formats each table and
// figure (Table II, Fig. 3, Figs. 8-15, and the Sec. V-E design
// trade-off studies) next to the paper's reference numbers.
package harness

import (
	"context"
	"errors"
	"fmt"

	"tdnuca/internal/arch"
	"tdnuca/internal/core"
	"tdnuca/internal/energy"
	"tdnuca/internal/faults"
	"tdnuca/internal/machine"
	"tdnuca/internal/policy"
	"tdnuca/internal/rnuca"
	"tdnuca/internal/sim"
	"tdnuca/internal/taskrt"
	"tdnuca/internal/trace"
	"tdnuca/internal/workgen"
	"tdnuca/internal/workloads"
)

// PolicyKind selects the NUCA management scheme for a run.
type PolicyKind string

// The five configurations the evaluation uses.
const (
	SNUCA        PolicyKind = "S-NUCA"
	RNUCA        PolicyKind = "R-NUCA"
	TDNUCA       PolicyKind = "TD-NUCA"
	TDBypassOnly PolicyKind = "TD-NUCA (Bypass Only)"
	TDNoISA      PolicyKind = "TD-NUCA (runtime only)"
)

// Config parametrizes a run.
type Config struct {
	Arch      arch.Config
	Factor    workloads.Factor
	Seed      uint64
	FragEvery int // physical page fragmentation period (0 = contiguous)
	Energy    energy.Params
	RT        taskrt.Options

	// EagerFlush switches TD-NUCA to the paper-literal eager task-end
	// flush (the deferred-flush ablation).
	EagerFlush bool
}

// DefaultConfig returns the configuration every experiment uses unless a
// sweep overrides something: the scaled machine, the 1/32 workload scale,
// mild physical fragmentation and the default cost models.
func DefaultConfig() Config {
	cfg := Config{
		Arch:      arch.ScaledConfig(),
		Factor:    workloads.DefaultFactor,
		Seed:      1,
		FragEvery: 16,
		Energy:    energy.DefaultParams(),
		RT:        taskrt.DefaultOptions(),
	}
	// The paper's gem5/Ruby simulation models a contended NoC; the
	// queueing model is therefore on for experiments (and off for unit
	// tests that assert exact topological latencies).
	cfg.Arch.NoCContention = true
	return cfg
}

// Result carries everything one run measured.
type Result struct {
	Benchmark string
	Policy    PolicyKind

	Cycles  sim.Cycles // makespan of the parallel phase
	Metrics machine.Metrics
	Energy  energy.Tally

	// DataMovement is the aggregate bytes-times-hops through the NoC,
	// including DRAM-to-L1 traffic of bypassed blocks (Fig. 12's metric).
	DataMovement uint64
	NoCMessages  uint64

	TLBHits, TLBMisses uint64

	Tasks        int
	AvgTaskKB    float64
	HookCost     sim.Cycles
	CreationCost sim.Cycles

	// AccessDigest fingerprints the task graph's access set: every task's
	// name and exact dependency ranges/modes, in creation order. It is a
	// function of the program, not of the policy or the worker pool, so
	// every PolicyKind must produce the same value for one benchmark —
	// the anchor of the differential tests. Tagged out of Digest so its
	// introduction leaves previously pinned goldens untouched.
	AccessDigest uint64 `digest:"-"`

	// Stack decomposes NumCores*Cycles into where the time went; its
	// Total() equals that product exactly (asserted by tests). Filled
	// identically whether or not tracing is attached.
	Stack trace.CycleStack

	FootprintBlocks uint64

	// R-NUCA classification (only for RNUCA runs): unique touched blocks.
	RNUCAPrivate, RNUCASharedRO, RNUCAShared uint64

	// TD-NUCA extras (only for TD runs).
	TDClassification core.BlockClassification
	RRTAvgOcc        float64
	RRTMaxOcc        int
	RegisterFailures uint64
	ManagerStats     core.ManagerStats

	Violations []string

	// Faults is what fault injection applied (nil unless Job.Faults was
	// set) and Trace the event data of a traced run (nil unless Job.Trace
	// was set). Neither enters the field walk of Digest — a faulted run
	// digests under its own layout instead, and tracing only observes —
	// nor the JSON form of a Result.
	Faults *FaultReport `digest:"-" json:"-"`
	Trace  *trace.Data  `digest:"-" json:"-"`
}

// Speedup returns base.Cycles / r.Cycles, the paper's Fig. 8 metric.
func (r Result) Speedup(base Result) float64 {
	return float64(base.Cycles) / float64(r.Cycles)
}

// Run executes one job and returns its Result. The job is validated
// before it runs (see Job.Validate); every error names the job it came
// from.
//
// ctx bounds the run: cancellation is checked at every task-dispatch
// boundary (the scheduler's quiesced points, the same places the
// watchdog checks its cycle budget and the fault injector advances), so
// a canceled run stops within one task's worth of simulation. The error
// then satisfies errors.Is(err, context.Canceled) (or the context's
// cause) and carries the structured *taskrt.StallError in its chain. A
// nil ctx, or one that can never be canceled (Done returns nil),
// installs no check at all; a run whose context is never canceled
// returns the same Result either way — the check only observes.
func Run(ctx context.Context, j Job) (Result, error) {
	if err := j.check(); err != nil {
		return Result{}, err
	}
	r, err := run(ctx, j)
	return r, identify(j.Bench, j.Kind, err)
}

// validatePolicy rejects policy/architecture combinations that cannot
// work: a policy whose placement decisions depend on the RRT needs at
// least one RRT entry per core (an RRT degraded to zero entries mid-run
// by a fault is a different thing — the fallback path handles that; a
// machine *built* without one is a misconfiguration).
func validatePolicy(kind PolicyKind, a *arch.Config) error {
	switch kind {
	case TDNUCA, TDBypassOnly, TDNoISA:
		if a.RRTEntries <= 0 {
			return fmt.Errorf("harness: policy %s requires RRTEntries > 0 (got %d)", kind, a.RRTEntries)
		}
	}
	return nil
}

// resolveSpec looks a benchmark up by name: the Table II set first, then
// the workload generator's "gen:" scheme (internal/workgen). Every
// harness entry point resolves through here, so generated workloads flow
// through suites, fault injection, tracing and the worker pool exactly
// like the hand-written benchmarks.
func resolveSpec(bench string, f workloads.Factor) (workloads.Spec, error) {
	if spec, ok := workloads.Get(bench, f); ok {
		return spec, nil
	}
	if workgen.IsName(bench) {
		p, err := workgen.Parse(bench)
		if err != nil {
			return workloads.Spec{}, err
		}
		return workgen.New(p, f)
	}
	return workloads.Spec{}, fmt.Errorf("harness: unknown benchmark %q", bench)
}

// checkBench returns resolveSpec's error for a benchmark name without
// building the workload: a Table II name passes on membership and a
// generator name on workgen.Parse plus Params.Validate, workgen.New's
// only error path. Admission checks names here so that the spec is
// built once per run, in run.
func checkBench(bench string) error {
	if workloads.Has(bench) {
		return nil
	}
	if workgen.IsName(bench) {
		p, err := workgen.Parse(bench)
		if err != nil {
			return err
		}
		return p.Validate()
	}
	return fmt.Errorf("harness: unknown benchmark %q", bench)
}

// run executes a validated job. Only cancellation errors come back
// tagged with the job; its callers tag the rest.
func run(ctx context.Context, j Job) (Result, error) {
	bench, kind, cfg := j.Bench, j.Kind, j.Cfg
	if ctx != nil && ctx.Done() != nil {
		if ctx.Err() != nil {
			return Result{}, fmt.Errorf("harness: %s under %s: %w", bench, kind, ctxCause(ctx))
		}
		// Dispatch boundaries are the scheduler's quiesced points: no task
		// mid-flight, so stopping there leaves no half-simulated state to
		// reason about. ctx.Err is one atomic load — cheap enough to poll
		// every dispatch.
		cfg.RT.Canceled = func() bool { return ctx.Err() != nil }
	}
	spec, err := resolveSpec(bench, cfg.Factor)
	if err != nil {
		return Result{}, err
	}
	m, err := machine.New(&cfg.Arch, cfg.FragEvery, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	var tr *trace.Tracer
	if j.Trace != nil {
		tr = trace.New(*j.Trace)
	}
	m.SetTracer(tr)

	var hooks taskrt.Hooks
	var mgr *core.Manager
	var rn *rnuca.RNUCA
	switch kind {
	case SNUCA:
		m.SetPolicy(policy.NewSNUCA())
	case RNUCA:
		rn = rnuca.New(m)
		m.SetPolicy(rn)
	case TDNUCA:
		mgr = core.NewManager(m, core.Full)
		mgr.EagerFlush = cfg.EagerFlush
		m.SetPolicy(mgr)
		hooks = mgr
	case TDBypassOnly:
		mgr = core.NewManager(m, core.BypassOnly)
		mgr.EagerFlush = cfg.EagerFlush
		m.SetPolicy(mgr)
		hooks = mgr
	case TDNoISA:
		mgr = core.NewManager(m, core.NoISA)
		m.SetPolicy(policy.NewSNUCA())
		hooks = mgr
	default:
		return Result{}, fmt.Errorf("harness: unknown policy %q", kind)
	}

	// Fault injection: the validated scenario is turned into an injector
	// whose Advance runs at every task-dispatch boundary (the only points
	// where no task is mid-flight), charging reconfiguration cycles to the
	// dispatching core. On a healthy run the hook stays nil and the code
	// path — and therefore the digest — is untouched.
	var inj *faults.Injector
	if j.Faults != nil {
		var deg faults.RRTDegrader
		if mgr != nil {
			deg = mgr
		}
		inj = faults.NewInjector(m, deg, j.Faults)
		cfg.RT.OnDispatch = inj.Advance
	}

	rt := taskrt.New(m, hooks, cfg.RT)
	if err := buildChecked(spec, rt); err != nil {
		return Result{}, wrapCanceled(ctx, bench, kind, err)
	}

	res := Result{
		Benchmark:       bench,
		Policy:          kind,
		Cycles:          rt.Makespan(),
		Metrics:         m.Metrics(),
		Energy:          energy.Compute(cfg.Energy, m.EnergyCounters()),
		Tasks:           rt.ExecutedTasks(),
		HookCost:        rt.HookCost(),
		CreationCost:    rt.CreationCost(),
		FootprintBlocks: spec.FootprintBytes / uint64(cfg.Arch.BlockBytes),
		DataMovement:    m.Net.ByteHops(),
		NoCMessages:     m.Net.Messages(),
		Violations:      m.Violations(),
	}
	res.TLBHits, res.TLBMisses = m.TLBStats()
	res.AccessDigest = accessDigest(rt.Tasks())
	var depKB float64
	for _, t := range rt.Tasks() {
		var bytes uint64
		for _, d := range t.Deps {
			bytes += d.Range.Size
		}
		depKB += float64(bytes) / 1024
	}
	if res.Tasks > 0 {
		res.AvgTaskKB = depKB / float64(res.Tasks)
	}
	if rn != nil {
		res.RNUCAPrivate, res.RNUCASharedRO, res.RNUCAShared = rn.BlockClasses()
	}
	if mgr != nil {
		res.TDClassification = mgr.Directory().Classify(cfg.Arch.BlockBytes)
		res.RRTAvgOcc = mgr.AvgRRTOccupancy()
		res.RRTMaxOcc = mgr.MaxRRTOccupancy()
		res.RegisterFailures = mgr.Stats().RegisterFailures
		res.ManagerStats = mgr.Stats()
	}

	// Cycle stack: the machine accumulated the memory-system components at
	// the sites that built each access's latency; the runtime contributes
	// compute, TDG construction and hook overhead; the remainder of
	// NumCores*Makespan is scheduling idle time. Busy can never exceed the
	// total: every charged cycle advanced some core's clock, and the
	// makespan bounds every clock.
	stack := m.CycleStack()
	stack.Compute = rt.ComputeCost()
	stack.Runtime = rt.CreationCost()
	stack.Manager += rt.HookCost()
	// Fault reconfiguration time (bank drains, reroutes, RRT cleanup) was
	// charged to the dispatching core's clock; fold it into the policy
	// overhead slice. Zero on healthy runs.
	stack.Manager += rt.DispatchCost()
	total := rt.Makespan() * sim.Cycles(cfg.Arch.NumCores)
	if b := stack.Busy(); b > total {
		// Cycles is unsigned, so a silent subtraction here would wrap and
		// still "sum to total"; surface the accounting bug instead.
		res.Violations = append(res.Violations,
			fmt.Sprintf("cycle stack busy %d exceeds %d cores * makespan %d",
				b, cfg.Arch.NumCores, rt.Makespan()))
	} else {
		stack.Idle = total - b
	}
	res.Stack = stack

	if tr != nil {
		data := &trace.Data{
			Benchmark: bench,
			Policy:    string(kind),
			NumCores:  cfg.Arch.NumCores,
			Total:     rt.Makespan(),
			Interval:  tr.Interval(),
			Stack:     stack,
			Dropped:   tr.Dropped(),
			Events:    tr.Events(),
			Samples:   tr.Samples(),
		}
		for _, t := range rt.Tasks() {
			if !t.Done() {
				continue
			}
			data.Tasks = append(data.Tasks, trace.TaskSlice{
				Name: t.Name, ID: t.ID, Core: t.Core,
				Start: t.StartedAt, End: t.EndedAt,
			})
		}
		res.Trace = data
	}
	if inj != nil {
		res.Faults = &FaultReport{Scenario: j.Faults.String(), Stats: inj.Stats()}
	}
	return res, nil
}

// ctxCause returns why ctx ended, defaulting to context.Canceled when
// the context implementation records no cause.
func ctxCause(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return context.Canceled
}

// wrapCanceled rewrites a StallCanceled watchdog error as the context's
// own cause so callers can errors.Is(err, context.Canceled) — the
// structured *taskrt.StallError stays in the chain for error-body
// mapping (internal/serve). Every other error passes through unchanged.
func wrapCanceled(ctx context.Context, bench string, kind PolicyKind, err error) error {
	var se *taskrt.StallError
	if ctx == nil || !errors.As(err, &se) || se.Kind != taskrt.StallCanceled {
		return err
	}
	return fmt.Errorf("harness: %s under %s: %w (%w)", bench, kind, ctxCause(ctx), se)
}

// buildChecked runs the benchmark's TDG builder, converting a scheduler
// stall (the runtime's Wait panics with a *taskrt.StallError on deadlock
// or budget exhaustion) into an ordinary error so one wedged run fails
// cleanly instead of taking the whole sweep down.
func buildChecked(spec workloads.Spec, rt *taskrt.Runtime) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(*taskrt.StallError); ok {
				err = se
				return
			}
			panic(r)
		}
	}()
	spec.Build(rt)
	return nil
}

// Suite holds the results of every benchmark under a set of policies,
// keyed [benchmark][policy]. The main figures all derive from one Suite.
type Suite map[string]map[PolicyKind]Result

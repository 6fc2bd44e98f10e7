package taskrt

import (
	"fmt"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/machine"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
)

// Hooks is how a NUCA policy participates in the runtime's operational
// model (Sec. III-C2). TD-NUCA's manager implements all three; baseline
// policies use NopHooks.
//
// TaskStarting, the task body and TaskEnded run back to back for one
// task: a body has no runtime handle, so nothing can dispatch in between.
// An implementation may therefore keep a single task's state from
// TaskStarting to TaskEnded instead of a per-task table.
type Hooks interface {
	// TaskCreated fires when a task is inserted into the TDG (UseDesc
	// increments happen here).
	TaskCreated(t *Task)
	// TaskStarting fires after the scheduler picked a core but before the
	// body runs; the returned cycles (placement decisions, RRT
	// registration instructions) are charged to the core.
	TaskStarting(t *Task, core int) sim.Cycles
	// TaskEnded fires when the body finishes; the returned cycles
	// (flush/invalidate instructions, completion-register polling) are
	// charged to the core.
	TaskEnded(t *Task, core int) sim.Cycles
}

// NopHooks is the no-op Hooks implementation used by S-NUCA and R-NUCA.
type NopHooks struct{}

// TaskCreated implements Hooks.
func (NopHooks) TaskCreated(*Task) {}

// TaskStarting implements Hooks.
func (NopHooks) TaskStarting(*Task, int) sim.Cycles { return 0 }

// TaskEnded implements Hooks.
func (NopHooks) TaskEnded(*Task, int) sim.Cycles { return 0 }

// Options tunes the runtime's cost model.
type Options struct {
	// CreateCost is charged to the creator thread per task created,
	// CreateCostPerDep additionally per dependency (TDG insertion work).
	CreateCost       sim.Cycles
	CreateCostPerDep sim.Cycles
	// ComputePerBlock is the compute charged by the Sweep helpers for
	// each cache block processed, folding word-granularity work into a
	// per-block cost.
	ComputePerBlock sim.Cycles
	// DisableAffinity turns off data-affinity scheduling (pure FIFO to
	// the earliest-free core) — the scheduler ablation.
	DisableAffinity bool
	// Cores restricts the runtime to a subset of cores (space-shared
	// multiprogramming). Empty means all cores. The first listed core
	// doubles as the creator thread.
	Cores []int
	// MaxCycles, when positive, is the scheduler watchdog's cycle budget:
	// a dispatch whose start time would exceed it stalls the run with a
	// StallBudget error instead of simulating a runaway schedule forever.
	MaxCycles sim.Cycles
	// OnDispatch, when non-nil, fires once per task dispatch with the
	// task's start time and returns extra cycles charged to the dispatch
	// (before TaskStarting). The fault injector advances its scenario
	// here: dispatch boundaries are the only points where no task is
	// mid-flight, so injected reconfigurations stay deterministic.
	OnDispatch func(now sim.Cycles) sim.Cycles
	// Canceled, when non-nil, is polled at every task-dispatch boundary —
	// the same quiesced points the watchdog checks its cycle budget at.
	// Returning true stops the scheduler with a StallCanceled error
	// instead of dispatching another task, which is how harness.Run's
	// context (RunMany's first-failure cancel, the experiment service's
	// drain) aborts a run whose result nobody will read. A run whose hook
	// never reports true behaves bit-identically to one without the hook.
	Canceled func() bool
}

// DefaultOptions returns the cost model used by all experiments.
func DefaultOptions() Options {
	return Options{
		CreateCost:       arch.TaskCreateCycles,
		CreateCostPerDep: arch.TaskCreatePerDepCycles,
		ComputePerBlock:  arch.ComputePerBlockCycles,
	}
}

// Runtime is the task dataflow runtime bound to one simulated machine.
// It is single-threaded: the simulation of parallel execution is
// performed by tracking per-core clocks deterministically.
type Runtime struct {
	M     *machine.Machine
	hooks Hooks
	opts  Options

	reg      *depRegistry
	tasks    []*Task
	pending  int
	coreFree []sim.Cycles
	cores    []int   // cores this runtime may use
	ready    []*Task // FIFO of ready tasks (insertion order)
	nextID   int

	makespan      sim.Cycles
	creationCost  sim.Cycles
	hookCost      sim.Cycles
	computeCost   sim.Cycles
	dispatchCost  sim.Cycles // cycles charged by Options.OnDispatch
	executedTasks int

	// tr mirrors the machine's tracer (captured at construction) so task
	// lifecycle events land in the same buffer as memory-system events.
	tr *trace.Tracer
}

// New creates a runtime on the given machine. hooks may be nil (NopHooks).
func New(m *machine.Machine, hooks Hooks, opts Options) *Runtime {
	if hooks == nil {
		hooks = NopHooks{}
	}
	cores := opts.Cores
	if len(cores) == 0 {
		cores = make([]int, m.Cfg.NumCores)
		for i := range cores {
			cores[i] = i
		}
	}
	return &Runtime{
		M:        m,
		hooks:    hooks,
		opts:     opts,
		reg:      newDepRegistry(),
		coreFree: make([]sim.Cycles, m.Cfg.NumCores),
		cores:    cores,
		tr:       m.Tracer(),
	}
}

// Spawn creates a task in program order: the creator thread (core 0)
// pays the creation cost, the task is inserted into the TDG, and it
// becomes ready if it has no unsatisfied dependencies.
func (rt *Runtime) Spawn(name string, deps []Dep, body BodyFn) *Task {
	creator := rt.cores[0]
	cost := rt.opts.CreateCost + rt.opts.CreateCostPerDep*sim.Cycles(len(deps))
	rt.coreFree[creator] += cost
	rt.creationCost += cost
	t := &Task{
		ID:        rt.nextID,
		Name:      name,
		Deps:      deps,
		Body:      body,
		CreatedAt: rt.coreFree[creator],
		Core:      -1,
	}
	rt.nextID++
	rt.tasks = append(rt.tasks, t)
	rt.reg.insertTask(t)
	rt.hooks.TaskCreated(t)
	rt.pending++
	if rt.tr != nil {
		rt.tr.Emit(trace.EvTaskCreate, t.CreatedAt, creator, uint64(t.ID), int32(len(deps)))
	}
	if t.unsatisfied == 0 {
		t.state = taskReady
		t.ReadyAt = t.CreatedAt
		rt.ready = append(rt.ready, t)
		if rt.tr != nil {
			rt.tr.Emit(trace.EvTaskReady, t.ReadyAt, creator, uint64(t.ID), 0)
		}
	}
	return t
}

// Wait is the global synchronization point (#pragma omp taskwait): it
// runs the dynamic scheduler until every spawned task has executed, then
// synchronizes all core clocks at the barrier.
//
// Scheduling discipline: the earliest-idle core takes, among the tasks
// already ready at that time, one whose data affinity matches the core
// (the producer of its input ran there), falling back to FIFO order; if
// nothing is ready yet, the core waits for the earliest-ready task. This
// models Nanos++'s data-affinity scheduler and is fully deterministic.
func (rt *Runtime) Wait() {
	if err := rt.WaitChecked(); err != nil {
		panic(err)
	}
}

// WaitChecked is Wait returning the scheduler watchdog's verdict instead
// of panicking: a wedged task graph (dependency cycle, never-satisfied
// dependency) or an exceeded cycle budget comes back as a *StallError
// naming the stuck tasks. On success it behaves exactly like Wait.
func (rt *Runtime) WaitChecked() error {
	for rt.pending > 0 {
		if err := rt.dispatchOne(); err != nil {
			return err
		}
	}
	// Barrier: every thread of this runtime reaches the sync point
	// together (cores belonging to other processes are untouched).
	var max sim.Cycles
	for _, c := range rt.cores {
		max = sim.Max(max, rt.coreFree[c])
	}
	for _, c := range rt.cores {
		rt.coreFree[c] = max
	}
	rt.makespan = sim.Max(rt.makespan, max)
	return nil
}

// WaitFor runs the scheduler only until the given task completes. Unlike
// Wait it is not a barrier: remaining ready tasks stay queued, core
// clocks are not synchronized, and later Spawn/Wait calls continue where
// the schedule left off. It lets programs express software pipelining —
// creating the next phase's tasks before draining the current one.
func (rt *Runtime) WaitFor(t *Task) {
	for !t.Done() {
		if rt.pending == 0 || len(rt.ready) == 0 {
			panic(fmt.Sprintf("taskrt: WaitFor(%q) cannot make progress", t.Name))
		}
		if err := rt.dispatchOne(); err != nil {
			panic(err)
		}
	}
}

// dispatchOne picks and fully executes one task on one core, or returns
// a *StallError when the watchdog detects the schedule cannot (deadlock)
// or should not (cycle budget) continue.
func (rt *Runtime) dispatchOne() *StallError {
	if c := rt.opts.Canceled; c != nil && c() {
		return rt.stallError(StallCanceled, 0)
	}
	if len(rt.ready) == 0 {
		return rt.stallError(StallDeadlock, 0)
	}
	minFree := rt.coreFree[rt.pickCore()]
	// Pass 1: the earliest feasible dispatch time over all ready tasks
	// (FIFO order breaks ties).
	bestEst := sim.Max(rt.ready[0].ReadyAt, minFree)
	for _, t := range rt.ready[1:] {
		if est := sim.Max(t.ReadyAt, minFree); est < bestEst {
			bestEst = est
		}
	}
	if rt.opts.MaxCycles > 0 && bestEst > rt.opts.MaxCycles {
		return rt.stallError(StallBudget, bestEst)
	}
	// Pass 2: among the tasks dispatchable at that time, prefer one whose
	// affinity core can take it without delay; otherwise the FIFO-first
	// dispatchable task on the earliest-free core.
	idx, core := -1, -1
	for i, t := range rt.ready {
		if sim.Max(t.ReadyAt, minFree) != bestEst {
			continue
		}
		if idx < 0 {
			idx, core = i, rt.pickCore()
			if rt.opts.DisableAffinity {
				break
			}
		}
		if aff := t.AffinityCore(); aff >= 0 && sim.Max(t.ReadyAt, rt.coreFree[aff]) <= bestEst {
			idx, core = i, aff
			break
		}
	}
	t := rt.ready[idx]
	rt.ready = append(rt.ready[:idx], rt.ready[idx+1:]...)
	rt.run(t, core, sim.Max(t.ReadyAt, rt.coreFree[core]))
	return nil
}

// pickCore returns the earliest-free core of this runtime's core set,
// ties broken by lowest id.
func (rt *Runtime) pickCore() int {
	best := rt.cores[0]
	for _, c := range rt.cores[1:] {
		if rt.coreFree[c] < rt.coreFree[best] {
			best = c
		}
	}
	return best
}

func (rt *Runtime) run(t *Task, core int, start sim.Cycles) {
	t.state = taskRunning
	t.Core = core
	t.StartedAt = start
	if rt.tr != nil {
		rt.tr.Emit(trace.EvTaskStart, start, core, uint64(t.ID), 0)
	}

	clock := start
	if rt.opts.OnDispatch != nil {
		d := rt.opts.OnDispatch(clock)
		clock += d
		rt.dispatchCost += d
	}
	h := rt.hooks.TaskStarting(t, core)
	clock += h
	rt.hookCost += h

	if t.Body != nil {
		e := &Exec{m: rt.M, core: core, clock: clock, perBlock: rt.opts.ComputePerBlock}
		t.Body(e)
		clock = e.clock
		rt.computeCost += e.compute
	}

	h = rt.hooks.TaskEnded(t, core)
	clock += h
	rt.hookCost += h

	t.EndedAt = clock
	t.state = taskDone
	rt.coreFree[core] = clock
	rt.pending--
	rt.executedTasks++
	if rt.tr != nil {
		rt.tr.Emit(trace.EvTaskEnd, clock, core, uint64(t.ID), 0)
	}
	for _, s := range t.succs {
		s.unsatisfied--
		if s.unsatisfied == 0 && s.state == taskCreated {
			s.state = taskReady
			s.ReadyAt = sim.Max(clock, s.CreatedAt)
			rt.ready = append(rt.ready, s)
			if rt.tr != nil {
				rt.tr.Emit(trace.EvTaskReady, s.ReadyAt, core, uint64(s.ID), 0)
			}
		}
	}
}

// Makespan returns the completion time of the last barrier.
func (rt *Runtime) Makespan() sim.Cycles { return rt.makespan }

// CreationCost returns the cycles the creator thread spent building the TDG.
func (rt *Runtime) CreationCost() sim.Cycles { return rt.creationCost }

// HookCost returns the cycles spent in policy hooks (the runtime-system
// extension overhead measured in Sec. V-E).
func (rt *Runtime) HookCost() sim.Cycles { return rt.hookCost }

// ComputeCost returns the cycles task bodies spent in pure compute
// (Exec.Compute, including the Sweep helpers' per-block charge).
func (rt *Runtime) ComputeCost() sim.Cycles { return rt.computeCost }

// DispatchCost returns the cycles charged by the OnDispatch callback
// (fault-injection reconfiguration work, zero on healthy runs).
func (rt *Runtime) DispatchCost() sim.Cycles { return rt.dispatchCost }

// ExecutedTasks returns how many tasks have run to completion.
func (rt *Runtime) ExecutedTasks() int { return rt.executedTasks }

// Tasks returns all tasks spawned so far, in creation order.
func (rt *Runtime) Tasks() []*Task { return rt.tasks }

// Exec is the execution context handed to task bodies: it issues memory
// accesses on the task's core and advances the core-local clock.
// It holds the machine and the per-block compute cost rather than the
// Runtime, so a body cannot reach scheduler state (mid-body Spawn is
// impossible by construction); run folds the body's compute cycles into
// the runtime's total when the body returns.
type Exec struct {
	m        *machine.Machine
	core     int
	clock    sim.Cycles
	perBlock sim.Cycles // Options.ComputePerBlock, captured at dispatch
	compute  sim.Cycles // body's pure-compute cycles, folded by run
}

// Core returns the core executing the task.
func (e *Exec) Core() int { return e.core }

// Now returns the core-local cycle count.
func (e *Exec) Now() sim.Cycles { return e.clock }

// Read issues a load from the virtual address.
func (e *Exec) Read(va amath.Addr) { e.clock += e.m.AccessAt(e.core, va, false, e.clock) }

// Write issues a store to the virtual address.
func (e *Exec) Write(va amath.Addr) { e.clock += e.m.AccessAt(e.core, va, true, e.clock) }

// Compute advances the clock by pure-compute cycles.
func (e *Exec) Compute(c sim.Cycles) {
	e.clock += c
	e.compute += c
}

// SweepRead streams through the range reading one word per cache block
// and charging the per-block compute cost.
func (e *Exec) SweepRead(r amath.Range) {
	r.EachBlock(e.m.Cfg.BlockBytes, func(b amath.Addr) {
		e.Read(b)
		e.Compute(e.perBlock)
	})
}

// SweepWrite streams through the range writing one word per cache block.
func (e *Exec) SweepWrite(r amath.Range) {
	r.EachBlock(e.m.Cfg.BlockBytes, func(b amath.Addr) {
		e.Write(b)
		e.Compute(e.perBlock)
	})
}

// SweepReadWrite streams through the range performing a read-modify-write
// per cache block.
func (e *Exec) SweepReadWrite(r amath.Range) {
	r.EachBlock(e.m.Cfg.BlockBytes, func(b amath.Addr) {
		e.Read(b)
		e.Write(b)
		e.Compute(e.perBlock)
	})
}

// SweepDeps performs the canonical streaming body: every In dependency is
// read, every Out dependency written, every InOut read-modified-written.
func (e *Exec) SweepDeps(t *Task) {
	for _, d := range t.Deps {
		switch d.Mode {
		case In:
			e.SweepRead(d.Range)
		case Out:
			e.SweepWrite(d.Range)
		case InOut:
			e.SweepReadWrite(d.Range)
		}
	}
}

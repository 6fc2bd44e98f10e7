package core

import (
	"testing"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/machine"
	"tdnuca/internal/policy"
	"tdnuca/internal/taskrt"
)

func depOn(t testing.TB, start amath.Addr, size uint64) taskrt.Dep {
	t.Helper()
	return taskrt.DepOn(taskrt.In, start, size)
}

// newTD builds machine + runtime wired with a TD-NUCA manager.
func newTD(t *testing.T, v Variant) (*machine.Machine, *Manager, *taskrt.Runtime) {
	t.Helper()
	cfg := arch.ScaledConfig()
	cfg.CheckInvariants = true
	m := machine.MustNew(&cfg, 0, 1)
	mg := NewManager(m, v)
	if v == NoISA {
		m.SetPolicy(policy.NewSNUCA())
	} else {
		m.SetPolicy(mg)
	}
	rt := taskrt.New(m, mg, taskrt.DefaultOptions())
	return m, mg, rt
}

func checkClean(t *testing.T, m *machine.Machine) {
	t.Helper()
	for _, v := range m.Violations() {
		t.Errorf("coherence violation: %s", v)
	}
}

func sweepTask(rt *taskrt.Runtime, name string, deps []taskrt.Dep) *taskrt.Task {
	var tk *taskrt.Task
	tk = rt.Spawn(name, deps, func(e *taskrt.Exec) { e.SweepDeps(tk) })
	return tk
}

func TestSingleUseDependencyBypasses(t *testing.T) {
	m, mg, rt := newTD(t, Full)
	sweepTask(rt, "only", []taskrt.Dep{taskrt.DepOn(taskrt.InOut, 0, 8192)})
	rt.Wait()
	st := mg.Stats()
	if st.Bypasses != 1 || st.LocalMappings != 0 || st.ClusterMappings != 0 {
		t.Errorf("decisions = %+v, want 1 bypass", st)
	}
	met := m.Metrics()
	if met.BypassAccesses == 0 {
		t.Error("no accesses actually bypassed the LLC")
	}
	if met.LLCAccesses != 0 {
		t.Errorf("bypassed dependency still produced %d LLC accesses", met.LLCAccesses)
	}
	checkClean(t, m)
}

func TestOutDependencyMapsToLocalBank(t *testing.T) {
	m, mg, rt := newTD(t, Full)
	// Producer writes, consumer reads later: at the producer's start the
	// consumer is already in the TDG, so UseDesc > 0 and the out dep maps
	// to the local bank. The consumer is the final use of data still
	// parked in the producer's bank, so it reuses the resident mapping
	// rather than bypassing to DRAM.
	sweepTask(rt, "producer", []taskrt.Dep{taskrt.DepOn(taskrt.Out, 0, 8192)})
	sweepTask(rt, "consumer", []taskrt.Dep{taskrt.DepOn(taskrt.In, 0, 8192)})
	rt.Wait()
	st := mg.Stats()
	if st.LocalMappings != 1 {
		t.Errorf("local mappings = %d, want 1 (producer)", st.LocalMappings)
	}
	if st.Reuses != 1 {
		t.Errorf("reuses = %d, want 1 (consumer uses the parked data)", st.Reuses)
	}
	// With affinity scheduling the consumer runs on the producer's core,
	// so every LLC request stays in the local bank: distance 0.
	met := m.Metrics()
	if met.NUCADistCnt > 0 && met.NUCADistSum != 0 {
		t.Errorf("local-bank mapping travelled %d hops", met.NUCADistSum)
	}
	// The consumer must be served by the parked data (producer's L1/LLC
	// bank), not DRAM: only the producer's 128 write-allocate fetches
	// reach memory.
	if met.DRAMReads != 128 {
		t.Errorf("DRAM reads = %d, want 128 (producer write-allocates only)", met.DRAMReads)
	}
	if met.L1Hits < 128 {
		t.Errorf("L1 hits = %d; consumer should hit the producer's resident lines", met.L1Hits)
	}
	checkClean(t, m)
}

func TestProducerConsumerDataIntegrity(t *testing.T) {
	// Chain: write -> read-modify-write -> read, across different deps
	// kept live so all three placements appear; verifier must stay clean.
	m, mg, rt := newTD(t, Full)
	a := taskrt.DepOn(taskrt.Out, 0, 16384)
	for i := 0; i < 4; i++ {
		sweepTask(rt, "w", []taskrt.Dep{a})
		sweepTask(rt, "rw", []taskrt.Dep{taskrt.DepOn(taskrt.InOut, 0, 16384)})
		sweepTask(rt, "r", []taskrt.Dep{taskrt.DepOn(taskrt.In, 0, 16384)})
	}
	rt.Wait()
	if mg.Stats().Decisions != 12 {
		t.Errorf("decisions = %d, want 12", mg.Stats().Decisions)
	}
	checkClean(t, m)
}

func TestInDependencyClusterReplicates(t *testing.T) {
	m, mg, rt := newTD(t, Full)
	mg.ReplicateThreshold = 2 // the default needs more readers than this test spawns
	shared := taskrt.DepOn(taskrt.In, 0, 16384)
	// Many readers across phases keep UseDesc > 0 for the early ones.
	for i := 0; i < 8; i++ {
		out := taskrt.DepOn(taskrt.Out, amath.Addr(1+i)<<20, 8192)
		sweepTask(rt, "reader", []taskrt.Dep{shared, out})
	}
	rt.Wait()
	st := mg.Stats()
	if st.ClusterMappings == 0 {
		t.Fatalf("no cluster replication decisions: %+v", st)
	}
	checkClean(t, m)
}

func TestClusterReadDistanceBounded(t *testing.T) {
	// After replication, a reader's LLC accesses stay within its cluster
	// (max 2 hops on the 2x2 quadrants).
	m, mg, rt := newTD(t, Full)
	shared := taskrt.DepOn(taskrt.In, 0, 8192)
	for i := 0; i < 6; i++ {
		out := taskrt.DepOn(taskrt.Out, amath.Addr(1+i)<<20, 4096)
		sweepTask(rt, "r", []taskrt.Dep{shared, out})
	}
	rt.Wait()
	_ = mg
	checkClean(t, m)
}

func TestReadOnlyToWrittenTransitionFlushes(t *testing.T) {
	m, mg, rt := newTD(t, Full)
	mg.ReplicateThreshold = 2
	data := amath.Addr(0)
	// Phase 1: several readers replicate the dep (kept alive by later uses).
	for i := 0; i < 5; i++ {
		out := taskrt.DepOn(taskrt.Out, amath.Addr(1+i)<<20, 4096)
		sweepTask(rt, "r", []taskrt.Dep{taskrt.DepOn(taskrt.In, data, 8192), out})
	}
	// Phase 2 (same TDG): a writer takes the dep, then readers re-read.
	sweepTask(rt, "w", []taskrt.Dep{taskrt.DepOn(taskrt.InOut, data, 8192)})
	sweepTask(rt, "r2", []taskrt.Dep{taskrt.DepOn(taskrt.In, data, 8192)})
	rt.Wait()
	if mg.Stats().TransitionFlushes == 0 {
		t.Error("read-only to written transition never flushed replicas")
	}
	// The re-reader must have observed the writer's data.
	checkClean(t, m)
}

func TestBypassOnlyVariant(t *testing.T) {
	m, mg, rt := newTD(t, BypassOnly)
	shared := taskrt.DepOn(taskrt.In, 0, 8192)
	for i := 0; i < 4; i++ {
		out := taskrt.DepOn(taskrt.Out, amath.Addr(1+i)<<20, 8192)
		sweepTask(rt, "t", []taskrt.Dep{shared, out})
	}
	rt.Wait()
	st := mg.Stats()
	if st.LocalMappings != 0 || st.ClusterMappings != 0 {
		t.Errorf("BypassOnly made placement mappings: %+v", st)
	}
	if st.Bypasses == 0 {
		t.Error("BypassOnly never bypassed")
	}
	if st.Untracked == 0 {
		t.Error("BypassOnly never left reused deps untracked")
	}
	checkClean(t, m)
}

func TestBypassOnlyDirtyUntrackedThenBypassRead(t *testing.T) {
	// Regression for the stale-bypass hazard: a dep written while
	// untracked (dirty in interleaved banks) is later bypass-read; the
	// manager must flush the banks first so DRAM is current.
	m, _, rt := newTD(t, BypassOnly)
	d := amath.Addr(0)
	sweepTask(rt, "w1", []taskrt.Dep{taskrt.DepOn(taskrt.Out, d, 8192)})   // untracked (reused later)
	sweepTask(rt, "w2", []taskrt.Dep{taskrt.DepOn(taskrt.InOut, d, 8192)}) // untracked (reused later)
	sweepTask(rt, "r", []taskrt.Dep{taskrt.DepOn(taskrt.In, d, 8192)})     // last use: bypass read
	rt.Wait()
	checkClean(t, m)
}

func TestNoISAVariantKeepsSNUCABehaviour(t *testing.T) {
	m, mg, rt := newTD(t, NoISA)
	sweepTask(rt, "t", []taskrt.Dep{taskrt.DepOn(taskrt.InOut, 0, 8192)})
	rt.Wait()
	st := mg.Stats()
	if st.Registers != 0 || st.Flushes != 0 || st.Invalidates != 0 {
		t.Errorf("NoISA executed ISA instructions: %+v", st)
	}
	if st.Decisions == 0 {
		t.Error("NoISA skipped the decision bookkeeping")
	}
	if m.Metrics().BypassAccesses != 0 {
		t.Error("NoISA machine bypassed the LLC")
	}
	if rt.HookCost() == 0 {
		t.Error("NoISA charged no runtime overhead")
	}
	checkClean(t, m)
}

func TestRRTOverflowFallsBackSafely(t *testing.T) {
	// A 2-entry RRT cannot hold the working set; untracked ranges must
	// fall back to interleaving without breaking coherence.
	cfg := arch.ScaledConfig()
	cfg.RRTEntries = 2
	cfg.CheckInvariants = true
	m := machine.MustNew(&cfg, 2, 3) // fragmented pages: multi-range deps
	mg := NewManager(m, Full)
	m.SetPolicy(mg)
	rt := taskrt.New(m, mg, taskrt.DefaultOptions())
	// Large fragmented deps reused across tasks.
	for i := 0; i < 3; i++ {
		sweepTask(rt, "w", []taskrt.Dep{taskrt.DepOn(taskrt.Out, 0, 64<<10)})
		sweepTask(rt, "r", []taskrt.Dep{taskrt.DepOn(taskrt.In, 0, 64<<10)})
	}
	rt.Wait()
	if mg.Stats().RegisterFailures == 0 {
		t.Error("tiny RRT never overflowed; test is vacuous")
	}
	checkClean(t, m)
}

func TestUnalignedDependencyTrimmed(t *testing.T) {
	// A dep not aligned to cache blocks: only inner blocks are managed;
	// the straddling first/last blocks stay interleaved. Correctness must
	// hold for all of it.
	m, mg, rt := newTD(t, Full)
	dep := taskrt.Dep{Range: amath.NewRange(100, 8000), Mode: taskrt.InOut}
	var tk *taskrt.Task
	tk = rt.Spawn("unaligned", []taskrt.Dep{dep}, func(e *taskrt.Exec) { e.SweepDeps(tk) })
	sweepTask(rt, "r", []taskrt.Dep{{Range: amath.NewRange(100, 8000), Mode: taskrt.In}})
	rt.Wait()
	_ = mg
	checkClean(t, m)
}

func TestDecisionAndVariantStrings(t *testing.T) {
	if DecideBypass.String() != "bypass" || DecideLocal.String() != "local-bank" ||
		DecideCluster.String() != "cluster-replicated" || DecideUntracked.String() != "untracked" {
		t.Error("Decision.String wrong")
	}
	if Full.String() != "TD-NUCA" || BypassOnly.String() != "TD-NUCA (Bypass Only)" {
		t.Error("Variant.String wrong")
	}
}

func TestRRTOccupancyTracked(t *testing.T) {
	_, mg, rt := newTD(t, Full)
	shared := taskrt.DepOn(taskrt.In, 0, 8192)
	for i := 0; i < 4; i++ {
		out := taskrt.DepOn(taskrt.Out, amath.Addr(1+i)<<20, 8192)
		sweepTask(rt, "t", []taskrt.Dep{shared, out})
	}
	rt.Wait()
	if mg.MaxRRTOccupancy() == 0 {
		t.Error("max RRT occupancy never rose above zero")
	}
	if mg.AvgRRTOccupancy() <= 0 {
		t.Error("avg RRT occupancy not tracked")
	}
}

func TestFlushRegisterPolledPerFlush(t *testing.T) {
	_, mg, rt := newTD(t, Full)
	sweepTask(rt, "t", []taskrt.Dep{taskrt.DepOn(taskrt.InOut, 0, 8192)})
	rt.Wait()
	if mg.FlushRegisterPolls() == 0 {
		t.Error("completion register never polled")
	}
}

func TestFig3ClassificationFromRun(t *testing.T) {
	_, mg, rt := newTD(t, Full)
	// in-only dep (reused), out-only dep (reused), single-use dep (bypass).
	in := taskrt.DepOn(taskrt.In, 0, 8192)
	out1 := taskrt.DepOn(taskrt.Out, 1<<20, 8192)
	out2 := taskrt.DepOn(taskrt.Out, 1<<20, 8192)
	single := taskrt.DepOn(taskrt.InOut, 2<<20, 8192)
	sweepTask(rt, "a", []taskrt.Dep{in, out1})
	sweepTask(rt, "b", []taskrt.Dep{in, out2})
	sweepTask(rt, "c", []taskrt.Dep{single})
	// keep `in` alive one more time so it is cluster-replicated at least once
	sweepTask(rt, "d", []taskrt.Dep{in})
	rt.Wait()
	c := mg.Directory().Classify(64)
	if c.DepBlocks() == 0 {
		t.Fatal("no dependency blocks classified")
	}
	if c.NotReused == 0 {
		t.Error("no NotReused blocks despite single-use deps")
	}
}

func TestHooksCostCharged(t *testing.T) {
	_, mg, rt := newTD(t, Full)
	sweepTask(rt, "t", []taskrt.Dep{taskrt.DepOn(taskrt.InOut, 0, 8192)})
	rt.Wait()
	if rt.HookCost() == 0 || mg.Stats().HookCycles == 0 {
		t.Error("TD-NUCA hook cycles not charged")
	}
}

// TestHooksSteadyStateAllocFree pins the fine-grained task path: once the
// directory, the RRTs and the manager's reused buffers are warm, a
// TaskStarting+TaskEnded pair allocates nothing. Each pair first creates
// the next task of a four-task cycle, so dependencies shared by
// neighbours have an outstanding use; the cycle walks one dependency
// through replication, a transition flush to a local mapping and a
// final in-place use, and covers sticky-local mappings, remote reads and
// bypasses besides. The cores rotate so mappings migrate, and fragmented
// pages make every dependency translate to several physical ranges. The
// small-RRT case overflows the tables, exercising the untracked
// bookkeeping.
func TestHooksSteadyStateAllocFree(t *testing.T) {
	for _, rrtEntries := range []int{0, 3} {
		cfg := arch.ScaledConfig()
		if rrtEntries > 0 {
			cfg.RRTEntries = rrtEntries
		}
		m := machine.MustNew(&cfg, 2, 3)
		mg := NewManager(m, Full)
		mg.ReplicateThreshold = 1
		m.SetPolicy(mg)
		shared := taskrt.DepOn(taskrt.In, 0, 64<<10)
		owned := taskrt.DepOn(taskrt.InOut, 1<<20, 16<<10)
		reader := taskrt.DepOn(taskrt.In, 1<<20, 16<<10)
		cycled := taskrt.Dep{Range: amath.NewRange(2<<20, 16<<10)}
		final := taskrt.DepOn(taskrt.InOut, 3<<20, 16<<10)
		single := taskrt.DepOn(taskrt.InOut, 4<<20, 16<<10)
		// Outstanding uses that are never started keep shared replicated
		// and owned mapped rather than bypassed.
		mg.TaskCreated(&taskrt.Task{ID: -1, Deps: []taskrt.Dep{shared, owned}})
		in, inout := cycled, cycled
		in.Mode, inout.Mode = taskrt.In, taskrt.InOut
		tasks := []*taskrt.Task{
			{ID: 0, Deps: []taskrt.Dep{shared, in}},
			{ID: 1, Deps: []taskrt.Dep{inout, owned}},
			{ID: 2, Deps: []taskrt.Dep{in, final}},
			{ID: 3, Deps: []taskrt.Dep{reader, final, single}},
		}
		mg.TaskCreated(tasks[0])
		step := 0
		pair := func() {
			tk, next := tasks[step%len(tasks)], tasks[(step+1)%len(tasks)]
			core := (step * 5) % cfg.NumCores
			step++
			mg.TaskCreated(next)
			mg.TaskStarting(tk, core)
			mg.TaskEnded(tk, core)
		}
		for i := 0; i < 64; i++ {
			pair()
		}
		if n := testing.AllocsPerRun(200, pair); n != 0 {
			t.Errorf("RRT entries %d: TaskStarting+TaskEnded allocates %v allocs/run, want 0", cfg.RRTEntries, n)
		}
		st := mg.Stats()
		if st.ClusterMappings == 0 || st.LocalMappings == 0 || st.RemoteReads == 0 ||
			st.Reuses == 0 || st.Bypasses == 0 || st.TransitionFlushes == 0 {
			t.Errorf("RRT entries %d: decision mix not covered: %+v", cfg.RRTEntries, st)
		}
		if rrtEntries > 0 && st.RegisterFailures == 0 {
			t.Errorf("RRT entries %d: tables never overflowed", cfg.RRTEntries)
		}
	}
}

// TestTaskEndedMustMatchStartedTask checks the decision bracket: the
// manager keeps one task's decisions, so ending any other task panics.
func TestTaskEndedMustMatchStartedTask(t *testing.T) {
	for _, v := range []Variant{Full, NoISA} {
		_, mg, _ := newTD(t, v)
		a := &taskrt.Task{ID: 1, Deps: []taskrt.Dep{taskrt.DepOn(taskrt.InOut, 0, 8192)}}
		b := &taskrt.Task{ID: 2, Deps: []taskrt.Dep{taskrt.DepOn(taskrt.InOut, 1<<20, 8192)}}
		mustPanic := func(what string, fn func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%v: %s did not panic", v, what)
				}
			}()
			fn()
		}
		mustPanic("TaskEnded before any TaskStarting", func() { mg.TaskEnded(a, 0) })
		mg.TaskCreated(a)
		mg.TaskCreated(b)
		mg.TaskStarting(a, 0)
		mustPanic("TaskEnded of another task", func() { mg.TaskEnded(b, 0) })
		mg.TaskEnded(a, 0)
		mustPanic("a second TaskEnded", func() { mg.TaskEnded(a, 0) })
	}
}

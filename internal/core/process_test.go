package core

import (
	"testing"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/machine"
	"tdnuca/internal/taskrt"
)

// newMP builds a machine with two processes space-sharing the chip
// (cores 0-7 / 8-15) under a multiprogrammed TD-NUCA router, and one
// runtime per process.
func newMP(t *testing.T) (*machine.Machine, *ProcessRouter, *taskrt.Runtime, *taskrt.Runtime) {
	t.Helper()
	cfg := arch.ScaledConfig()
	cfg.CheckInvariants = true
	m := machine.MustNew(&cfg, 0, 1)
	pid1 := m.AddProcess()
	router := NewProcessRouter(m)
	m.SetPolicy(router)

	mg0 := router.Attach(0, Full)
	mg1 := router.Attach(pid1, Full)
	cores0 := mg0.BindRuntime(arch.MaskAll(8))                          // tiles 0-7
	cores1 := mg1.BindRuntime(arch.MaskAll(16).AndNot(arch.MaskAll(8))) // tiles 8-15

	opts0 := taskrt.DefaultOptions()
	opts0.Cores = cores0
	opts1 := taskrt.DefaultOptions()
	opts1.Cores = cores1
	rt0 := taskrt.New(m, mg0, opts0)
	rt1 := taskrt.New(m, mg1, opts1)
	return m, router, rt0, rt1
}

func spawnChain(rt *taskrt.Runtime, base amath.Addr, n int) {
	r := amath.NewRange(base, 16<<10)
	for i := 0; i < n; i++ {
		var tk *taskrt.Task
		tk = rt.Spawn("chain", []taskrt.Dep{{Range: r, Mode: taskrt.InOut}},
			func(e *taskrt.Exec) { e.SweepDeps(tk) })
	}
}

func TestTwoProcessesStayCoherent(t *testing.T) {
	m, _, rt0, rt1 := newMP(t)
	// Both processes use the SAME virtual addresses — isolation comes
	// from the per-process page tables and the ASID-tagged RRTs.
	spawnChain(rt0, 0x100000, 6)
	spawnChain(rt1, 0x100000, 6)
	rt0.Wait()
	rt1.Wait()
	for _, v := range m.Violations() {
		t.Errorf("violation: %s", v)
	}
	if rt0.ExecutedTasks() != 6 || rt1.ExecutedTasks() != 6 {
		t.Errorf("executed %d/%d", rt0.ExecutedTasks(), rt1.ExecutedTasks())
	}
}

func TestProcessesGetDistinctPhysicalPages(t *testing.T) {
	m, _, _, _ := newMP(t)
	pa0 := m.Process(0).AS.Translate(0x100000)
	pa1 := m.Process(1).AS.Translate(0x100000)
	if pa0 == pa1 {
		t.Fatalf("same virtual address mapped to the same frame %#x for both processes", uint64(pa0))
	}
}

func TestRuntimesRespectCorePartition(t *testing.T) {
	_, _, rt0, rt1 := newMP(t)
	spawnChain(rt0, 0x200000, 4)
	// Independent tasks to exercise multiple cores.
	for i := 0; i < 12; i++ {
		r := amath.NewRange(amath.Addr(0x400000+i*0x100000), 8<<10)
		var tk *taskrt.Task
		tk = rt1.Spawn("p", []taskrt.Dep{{Range: r, Mode: taskrt.Out}},
			func(e *taskrt.Exec) { e.SweepDeps(tk) })
	}
	rt0.Wait()
	rt1.Wait()
	for _, tk := range rt0.Tasks() {
		if tk.Core >= 8 {
			t.Errorf("process-0 task ran on core %d", tk.Core)
		}
	}
	for _, tk := range rt1.Tasks() {
		if tk.Core < 8 {
			t.Errorf("process-1 task ran on core %d", tk.Core)
		}
	}
}

func TestASIDIsolationInRRT(t *testing.T) {
	r := NewRRT(8)
	r.Insert(0, amath.NewRange(0x1000, 0x1000), arch.MaskOf(2))
	r.Insert(1, amath.NewRange(0x1000, 0x1000), arch.MaskOf(5))
	if mask, ok := r.Lookup(0, 0x1800); !ok || mask != arch.MaskOf(2) {
		t.Errorf("ASID 0 lookup = %v, %v", mask, ok)
	}
	if mask, ok := r.Lookup(1, 0x1800); !ok || mask != arch.MaskOf(5) {
		t.Errorf("ASID 1 lookup = %v, %v", mask, ok)
	}
	if _, ok := r.Lookup(2, 0x1800); ok {
		t.Error("unknown ASID matched")
	}
	// Removing ASID 0's entry leaves ASID 1's intact.
	if n := r.RemoveOverlapping(0, amath.NewRange(0, 1<<20)); n != 1 {
		t.Errorf("removed %d, want 1", n)
	}
	if _, ok := r.Lookup(1, 0x1800); !ok {
		t.Error("ASID 1 entry removed by ASID 0 invalidate")
	}
}

func TestBindCoreFlushesTLB(t *testing.T) {
	cfg := arch.ScaledConfig()
	m := machine.MustNew(&cfg, 0, 1)
	pid := m.AddProcess()
	m.SetPolicy(NewProcessRouter(m))
	m.Access(0, 0x1000, false)
	hitsBefore := m.TLBs[0].Hits()
	m.Access(0, 0x1000, false) // TLB hit
	if m.TLBs[0].Hits() != hitsBefore+1 {
		t.Fatal("expected a TLB hit before the switch")
	}
	m.BindCore(0, pid)
	missesBefore := m.TLBs[0].Misses()
	m.Access(0, 0x1000, false) // must miss: TLB flushed at the switch
	if m.TLBs[0].Misses() != missesBefore+1 {
		t.Error("context switch did not flush the TLB")
	}
	// Rebinding to the same process is a no-op.
	m.BindCore(0, pid)
	if m.TLBs[0].Misses() != missesBefore+1 {
		t.Error("no-op rebind perturbed the TLB")
	}
}

func TestThreadMigration(t *testing.T) {
	m, router, rt0, _ := newMP(t)
	// Warm the machine so core 0 holds dirty private-cache data for the
	// ranges we are about to migrate.
	spawnChain(rt0, 0x300000, 3)
	rt0.Wait()
	mg := router.Manager(0)

	// Register mappings on core 0 for both processes; migration must move
	// only process 0's entries.
	from, to := 0, 5
	pr := amath.NewRange(m.Process(0).AS.Translate(0x300000), 16<<10)
	mg.RRTs()[from].Insert(0, pr, arch.MaskOf(from))
	mg.RRTs()[from].Insert(0, amath.NewRange(1<<30, 4096), arch.MaskOf(from))
	mg.RRTs()[from].Insert(1, amath.NewRange(2<<30, 4096), arch.MaskOf(9))

	cyc := mg.MigrateThread(from, to)
	if cyc == 0 {
		t.Error("migration cost zero cycles")
	}
	if got := len(mg.RRTs()[from].EntriesOf(0)); got != 0 {
		t.Errorf("%d process-0 entries left on source core", got)
	}
	if got := len(mg.RRTs()[to].EntriesOf(0)); got != 2 {
		t.Errorf("destination has %d process-0 entries, want 2", got)
	}
	if got := len(mg.RRTs()[from].EntriesOf(1)); got != 1 {
		t.Errorf("process-1 entry disturbed by process-0 migration (%d left)", got)
	}
	// The source core's private cache no longer holds the migrated range.
	found := false
	pr.EachBlock(64, func(b amath.Addr) {
		if m.L1s[from].Probe(b).IsValid() {
			found = true
		}
	})
	if found {
		t.Error("source private cache still holds migrated data")
	}
	// The chain continues without coherence violations.
	spawnChain(rt0, 0x300000, 2)
	rt0.Wait()
	for _, v := range m.Violations() {
		t.Errorf("violation after migration: %s", v)
	}
}

func TestRouterRejectsDuplicateAttach(t *testing.T) {
	cfg := arch.ScaledConfig()
	m := machine.MustNew(&cfg, 0, 1)
	router := NewProcessRouter(m)
	router.Attach(0, Full)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Attach did not panic")
		}
	}()
	router.Attach(0, Full)
}

func TestUnattachedProcessFallsBackToInterleaving(t *testing.T) {
	cfg := arch.ScaledConfig()
	cfg.CheckInvariants = true
	m := machine.MustNew(&cfg, 0, 1)
	pid := m.AddProcess()
	router := NewProcessRouter(m)
	m.SetPolicy(router)
	router.Attach(0, Full)
	// pid has no manager: its accesses interleave like S-NUCA.
	m.BindCore(4, pid)
	m.Access(4, 0x5000, true)
	m.Access(4, 0x5000, false)
	for _, v := range m.Violations() {
		t.Errorf("violation: %s", v)
	}
	if m.Metrics().LLCAccesses == 0 {
		t.Error("unattached process produced no LLC traffic")
	}
}

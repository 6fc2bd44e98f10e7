package machine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/cache"
	"tdnuca/internal/trace"
	"tdnuca/internal/vm"
)

// benchMachine builds a ScaledConfig machine with the coherence checker
// off — the configuration under which the access hot paths must stay
// allocation-free (the checker's tracking maps necessarily allocate).
func benchMachine(tb testing.TB) *Machine {
	tb.Helper()
	cfg := arch.ScaledConfig()
	return newBenchMachine(&cfg)
}

// contendedBenchMachine is benchMachine with the NoC queueing model on,
// as every experiment runs it.
func contendedBenchMachine(tb testing.TB) *Machine {
	tb.Helper()
	cfg := arch.ScaledConfig()
	cfg.NoCContention = true
	return newBenchMachine(&cfg)
}

func newBenchMachine(cfg *arch.Config) *Machine {
	m := MustNew(cfg, 0, 1)
	m.SetPolicy(&staticPolicy{})
	return m
}

// TestL1HitPathAllocFree pins the hot-path property: a warm L1 hit
// (read or silent-upgrade-free write on a Modified line) performs zero
// heap allocations when CheckInvariants is off.
func TestL1HitPathAllocFree(t *testing.T) {
	m := benchMachine(t)
	const va = amath.Addr(0x10000)
	m.Access(0, va, true) // warm: TLB, translation memo, L1 (Modified), LLC, directory

	if n := testing.AllocsPerRun(1000, func() {
		m.Access(0, va, false)
	}); n != 0 {
		t.Errorf("L1 read hit allocates %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		m.Access(0, va, true)
	}); n != 0 {
		t.Errorf("L1 write hit allocates %v allocs/op, want 0", n)
	}
}

// TestLLCHitPathAllocFree sweeps a working set larger than the scaled
// 8 KB L1 but far smaller than the 1 MB LLC, so after warmup every
// access is an L1 miss served by bankFill's LLC-hit path (plus clean
// silent L1 evictions). In steady state that whole path — TLB,
// translation, placement, NoC accounting, bank lookup and the in-tag
// directory entry beside the bank line — must not allocate.
func TestLLCHitPathAllocFree(t *testing.T) {
	m := benchMachine(t)
	const region = 64 << 10 // 8x the scaled L1, 1/16 of the LLC
	sweep := func() {
		for off := 0; off < region; off += 64 {
			m.Access(0, amath.Addr(off), false)
		}
	}
	sweep() // cold: fills the LLC and allocates the banks' directories
	sweep() // settle TLB and replacement state

	if n := testing.AllocsPerRun(10, sweep); n != 0 {
		t.Errorf("LLC hit sweep allocates %v allocs/run, want 0", n)
	}
}

// TestContendedLLCHitPathAllocFree is TestLLCHitPathAllocFree with NoC
// contention on: the contended walk, its per-link queueing state and the
// precomputed message occupancies add no allocation to the LLC-hit path.
func TestContendedLLCHitPathAllocFree(t *testing.T) {
	m := contendedBenchMachine(t)
	const region = 64 << 10 // 8x the scaled L1, 1/16 of the LLC
	sweep := func() {
		for off := 0; off < region; off += 64 {
			m.Access(0, amath.Addr(off), false)
		}
	}
	sweep()
	sweep()

	if n := testing.AllocsPerRun(10, sweep); n != 0 {
		t.Errorf("contended LLC hit sweep allocates %v allocs/run, want 0", n)
	}
}

// TestContendedEvictionPathAllocFree writes a region twice the scaled
// 1 MB LLC with NoC contention on, so in steady state every access
// misses both levels and its fills evict dirty lines: L1 writebacks into
// the banks, bank victims written back to memory, and the back-
// invalidations and contended messages those cost. None may allocate.
func TestContendedEvictionPathAllocFree(t *testing.T) {
	m := contendedBenchMachine(t)
	const region = 2 << 20
	sweep := func() {
		for off := 0; off < region; off += 64 {
			m.Access(0, amath.Addr(off), true)
		}
	}
	sweep() // cold: page tables, bank directories
	sweep()

	before := m.Metrics()
	if n := testing.AllocsPerRun(2, sweep); n != 0 {
		t.Errorf("contended dirty eviction sweep allocates %v allocs/run, want 0", n)
	}
	after := m.Metrics()
	if after.L1Writebacks == before.L1Writebacks || after.LLCWritebacksOut == before.LLCWritebacksOut {
		t.Errorf("sweep wrote back no dirty lines: L1 %d -> %d, LLC %d -> %d",
			before.L1Writebacks, after.L1Writebacks, before.LLCWritebacksOut, after.LLCWritebacksOut)
	}
	if m.Net.QueueingCycles() == 0 {
		t.Error("contended sweep charged no queueing delay")
	}
}

// TestTracedAccessPathAllocFree pins the tracing-on emission path: once
// the event buffer and the run's interval buckets exist, Emit is an
// indexed store plus counter updates, so a warm traced access allocates
// nothing. (The buffer itself and bucket growth are setup-time costs.)
func TestTracedAccessPathAllocFree(t *testing.T) {
	m := benchMachine(t)
	m.SetTracer(trace.New(trace.Options{Capacity: 1 << 16}))
	const va = amath.Addr(0x10000)
	m.Access(0, va, true) // warm caches and create the cycle-0 bucket

	if n := testing.AllocsPerRun(1000, func() {
		m.Access(0, va, false)
	}); n != 0 {
		t.Errorf("traced L1 read hit allocates %v allocs/op, want 0", n)
	}
}

// TestTLBAccessAllocFree pins the annotated vm hot paths directly: a TLB
// sweep that exercises hits, misses and LRU evictions, and the MRU
// translation memo crossing pre-touched pages, allocate nothing.
func TestTLBAccessAllocFree(t *testing.T) {
	tlb := vm.NewTLB(64)
	if n := testing.AllocsPerRun(100, func() {
		for vp := uint64(0); vp < 128; vp++ { // 2x capacity: every access past warmup evicts
			tlb.Access(vp)
		}
	}); n != 0 {
		t.Errorf("TLB sweep allocates %v allocs/run, want 0", n)
	}

	as := vm.NewAddressSpace(4096, 0, 1)
	region := amath.NewRange(0, 1<<20)
	as.Touch(region) // pre-fault, so the loop below measures steady state
	var tc vm.TransCache
	if n := testing.AllocsPerRun(10, func() {
		for off := uint64(0); off < 1<<20; off += 64 {
			as.TranslateMRU(&tc, amath.Addr(off))
		}
	}); n != 0 {
		t.Errorf("TranslateMRU sweep allocates %v allocs/run, want 0", n)
	}
}

// TestCacheAccessAllocFree pins the annotated cache hot paths directly: a
// working set twice the cache capacity drives Access and AccessSlot
// misses, ProbeSlot snoops and Insert evictions through every set, with
// zero allocations.
func TestCacheAccessAllocFree(t *testing.T) {
	c := cache.MustNew(8<<10, 8, 64)
	if n := testing.AllocsPerRun(100, func() {
		for off := 0; off < 16<<10; off += 64 {
			addr := amath.Addr(off)
			if c.Access(addr) == cache.Invalid {
				c.Insert(addr, cache.Shared)
			}
			c.ProbeSlot(addr + 8<<10)
			if st, _ := c.AccessSlot(addr + 8<<10); st == cache.Invalid {
				c.Insert(addr+8<<10, cache.Shared)
			}
		}
	}); n != 0 {
		t.Errorf("cache miss/fill sweep allocates %v allocs/run, want 0", n)
	}
}

// hotpathAnnotations scans a package directory for functions annotated
// //tdnuca:hotpath, returning "pkg.Func" / "pkg.(*Recv).Method" names.
func hotpathAnnotations(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) != "//tdnuca:hotpath" {
					continue
				}
				name := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					var b strings.Builder
					if err := (&typePrinter{&b}).print(fd.Recv.List[0].Type); err != nil {
						t.Fatal(err)
					}
					name = f.Name.Name + ".(" + b.String() + ")." + fd.Name.Name
				}
				names = append(names, name)
			}
		}
	}
	return names
}

// typePrinter renders the receiver type expressions used in this module.
type typePrinter struct{ b *strings.Builder }

func (p *typePrinter) print(e ast.Expr) error {
	switch e := e.(type) {
	case *ast.Ident:
		p.b.WriteString(e.Name)
		return nil
	case *ast.StarExpr:
		p.b.WriteString("*")
		return p.print(e.X)
	}
	return &os.PathError{Op: "print", Path: "receiver", Err: os.ErrInvalid}
}

// TestHotpathAnnotationSet pins the //tdnuca:hotpath annotation set to
// exactly the functions the AllocsPerRun tests in this file and the vm
// sweeps above exercise. Annotating a new root without extending the
// dynamic coverage (or dropping an annotation that tests still rely on)
// fails here — the static pass and the dynamic tests must describe the
// same set.
func TestHotpathAnnotationSet(t *testing.T) {
	want := []string{
		"cache.(*Cache).Access",
		"cache.(*Cache).AccessSlot",
		"cache.(*Cache).Insert",
		"cache.(*Cache).ProbeSlot",
		"machine.(*Machine).Access",
		"machine.(*Machine).AccessAt",
		"trace.(*Tracer).Emit",
		"trace.(*Tracer).EmitUntimed",
		"vm.(*AddressSpace).TranslateMRU",
		"vm.(*TLB).Access",
	}
	var got []string
	for _, dir := range []string{".", "../cache", "../trace", "../vm"} {
		got = append(got, hotpathAnnotations(t, dir)...)
	}
	sort.Strings(got)
	for i, w := range want {
		if i >= len(got) || got[i] != w {
			t.Fatalf("annotated hot-path set changed:\n got %v\nwant %v\nextend the AllocsPerRun coverage in this file to match", got, want)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("annotated hot-path set changed:\n got %v\nwant %v\nextend the AllocsPerRun coverage in this file to match", got, want)
	}
}

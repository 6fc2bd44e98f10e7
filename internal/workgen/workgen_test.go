package workgen

import (
	"reflect"
	"testing"
	"testing/quick"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/machine"
	"tdnuca/internal/policy"
	"tdnuca/internal/taskrt"
	"tdnuca/internal/workloads"
)

// buildGraph expands the spec on a fresh scaled S-NUCA machine and
// returns the executed runtime for structural inspection.
func buildGraph(t *testing.T, spec workloads.Spec) *taskrt.Runtime {
	t.Helper()
	cfg := arch.ScaledConfig()
	cfg.CheckInvariants = true
	m := machine.MustNew(&cfg, 8, 1)
	m.SetPolicy(policy.NewSNUCA())
	rt := taskrt.New(m, nil, taskrt.DefaultOptions())
	spec.Build(rt)
	for _, v := range m.Violations() {
		t.Errorf("coherence violation: %s", v)
	}
	return rt
}

// smallParams is a fast parameter set for structural tests.
func smallParams() Params {
	p := Default()
	p.Depth, p.Width, p.Bytes = 4, 8, 4096
	return p
}

func TestNameRoundTrip(t *testing.T) {
	p := Default()
	p.Seed, p.Depth, p.Overlap, p.Wait = 42, 12, 75, 3
	got, err := Parse(p.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", p.String(), err)
	}
	if got != p {
		t.Errorf("round trip: got %+v, want %+v", got, p)
	}
}

func TestParseSubsetKeepsDefaults(t *testing.T) {
	got, err := Parse("gen:seed=9,width=4")
	if err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.Seed, want.Width = 9, 4
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	// The bare prefix is the default workload.
	if got, err := Parse("gen:"); err != nil || got != Default() {
		t.Errorf("Parse(gen:) = %+v, %v; want defaults", got, err)
	}
}

func TestParseRejectsMalformedNames(t *testing.T) {
	for _, name := range []string{
		"Jacobi",                   // no prefix
		"gen:seed",                 // not key=value
		"gen:seed=x",               // not a number
		"gen:depth=99999999999999", // overflows int32
		"gen:turbo=1",              // unknown knob
		"gen:seed=1,,width=2",      // empty field
	} {
		if _, err := Parse(name); err == nil {
			t.Errorf("Parse(%q) accepted a malformed name", name)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := map[string]func(*Params){
		"zero depth":      func(p *Params) { p.Depth = 0 },
		"huge depth":      func(p *Params) { p.Depth = maxDepth + 1 },
		"zero width":      func(p *Params) { p.Width = 0 },
		"huge width":      func(p *Params) { p.Width = maxWidth + 1 },
		"too many tasks":  func(p *Params) { p.Depth, p.Width = 256, 1024 },
		"negative fanout": func(p *Params) { p.Fanout = -1 },
		"huge fanout":     func(p *Params) { p.Fanout = 65 },
		"zero reuse":      func(p *Params) { p.Reuse = 0 },
		"reuse > depth":   func(p *Params) { p.Reuse = p.Depth + 1 },
		"tiny bytes":      func(p *Params) { p.Bytes = 32 },
		"huge bytes":      func(p *Params) { p.Bytes = maxTaskBytes + 1 },
		"huge footprint":  func(p *Params) { p.Width, p.Bytes = 1024, 16<<20 },
		"overlap > 100":   func(p *Params) { p.Overlap = 101 },
		"negative inout":  func(p *Params) { p.InOut = -1 },
		"huge compute":    func(p *Params) { p.Compute = maxCompute + 1 },
		"wait > depth":    func(p *Params) { p.Wait = p.Depth + 1 },
	}
	for name, mutate := range mutations {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
		if _, err := New(p, 1); err == nil {
			t.Errorf("%s: New accepted %+v", name, p)
		}
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("Default params invalid: %v", err)
	}
}

// TestSameSeedSameGraph is the generator's core determinism contract:
// two independent expansions of the same Params spawn byte-identical
// task graphs with identical schedules.
func TestSameSeedSameGraph(t *testing.T) {
	p := smallParams()
	a := buildGraph(t, MustNew(p, 1))
	b := buildGraph(t, MustNew(p, 1))
	ta, tb := a.Tasks(), b.Tasks()
	if len(ta) != len(tb) {
		t.Fatalf("task counts differ: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i].Name != tb[i].Name || !reflect.DeepEqual(ta[i].Deps, tb[i].Deps) {
			t.Fatalf("task %d differs: %q %v vs %q %v", i, ta[i].Name, ta[i].Deps, tb[i].Name, tb[i].Deps)
		}
		if ta[i].Core != tb[i].Core || ta[i].EndedAt != tb[i].EndedAt {
			t.Fatalf("task %d schedule differs: core %d@%d vs %d@%d",
				i, ta[i].Core, ta[i].EndedAt, tb[i].Core, tb[i].EndedAt)
		}
	}
	if a.Makespan() != b.Makespan() {
		t.Errorf("makespans differ: %d vs %d", a.Makespan(), b.Makespan())
	}
}

func TestDifferentSeedsDifferentGraphs(t *testing.T) {
	p, q := smallParams(), smallParams()
	q.Seed = p.Seed + 1
	ta := buildGraph(t, MustNew(p, 1)).Tasks()
	tb := buildGraph(t, MustNew(q, 1)).Tasks()
	same := len(ta) == len(tb)
	if same {
		for i := range ta {
			if !reflect.DeepEqual(ta[i].Deps, tb[i].Deps) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical dependency structures")
	}
}

// TestGraphStructure replays the generator's layout arithmetic as an
// independent oracle and checks the structural invariants the knobs
// promise: task count, fan-out, reuse-window containment, and exact
// parent-output ranges.
func TestGraphStructure(t *testing.T) {
	f := func(seed uint64, ov, io uint8) bool {
		p := smallParams()
		p.Seed = seed
		p.Overlap = int(ov) % 101
		p.InOut = int(io) % 101
		p.Fanout = 3
		spec := MustNew(p, 1)
		rt := buildGraph(t, spec)
		tasks := rt.Tasks()
		if len(tasks) != p.Depth*p.Width {
			return false
		}
		// Oracle layout: inputs then outputs, page-rounded like New.
		next := amath.Addr(1 << 22)
		alloc := func(n uint64) amath.Range {
			const page = 4096
			r := amath.NewRange(next, n)
			next = (next + amath.Addr(n) + page - 1).AlignDown(page) + page
			return r
		}
		owner := map[amath.Addr]int{} // output range start -> flat task index
		for i := 0; i < p.Width; i++ {
			alloc(p.Bytes)
		}
		for i := 0; i < p.Depth*p.Width; i++ {
			owner[alloc(p.Bytes).Start] = i
		}
		for flat, tk := range tasks {
			l := flat / p.Width
			var reads int
			for _, d := range tk.Deps {
				switch d.Mode {
				case taskrt.Out:
					if got := owner[d.Range.Start]; got != flat {
						return false // writes someone else's output
					}
				case taskrt.In, taskrt.InOut:
					if l == 0 {
						continue // root input chunk
					}
					parent, ok := owner[d.Range.Start]
					if !ok || d.Range.Size != p.Bytes {
						return false // not an exact parent output
					}
					pl := parent / p.Width
					if pl >= l || pl < l-p.Reuse {
						return false // outside the reuse window
					}
					reads++
				}
			}
			if l > 0 && reads != p.Fanout {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestWaitBarriersPartitionSchedule: with wait=1 every layer drains
// before the next starts, so cross-layer task intervals never overlap.
func TestWaitBarriersPartitionSchedule(t *testing.T) {
	p := smallParams()
	p.Wait = 1
	rt := buildGraph(t, MustNew(p, 1))
	tasks := rt.Tasks()
	for i, tk := range tasks {
		l := i / p.Width
		for j, other := range tasks {
			if j/p.Width > l && other.StartedAt < tk.EndedAt {
				t.Fatalf("task %d (layer %d) started at %d before task %d (layer %d) ended at %d",
					j, j/p.Width, other.StartedAt, i, l, tk.EndedAt)
			}
		}
	}
}

func TestFactorScalesFootprint(t *testing.T) {
	p := smallParams()
	full := MustNew(p, 1)
	half := MustNew(p, 0.5)
	if half.FootprintBytes*2 != full.FootprintBytes {
		t.Errorf("factor 0.5 footprint = %d, want half of %d", half.FootprintBytes, full.FootprintBytes)
	}
	tiny := MustNew(p, workloads.Factor(1e-9))
	// Floors at one cache block per task, never zero.
	if want := uint64((p.Depth + 1) * p.Width * 64); tiny.FootprintBytes != want {
		t.Errorf("tiny factor footprint = %d, want %d", tiny.FootprintBytes, want)
	}
}

func TestSpecNameIsCanonical(t *testing.T) {
	p := smallParams()
	spec := MustNew(p, 1)
	if spec.Name != p.String() {
		t.Errorf("Spec.Name = %q, want %q", spec.Name, p.String())
	}
	if !IsName(spec.Name) {
		t.Errorf("IsName(%q) = false", spec.Name)
	}
}

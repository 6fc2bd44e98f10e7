// Package workloads implements the eight task dataflow benchmarks of
// Table II (Gauss, Histo, Jacobi, Kmeans, KNN, LU, MD5, Redblack) as Go
// task programs over the simulated machine. Each benchmark reproduces
// the dependency structure and access/reuse pattern that drives the
// paper's results:
//
//   - Gauss: 2D-blocked Gauss-Seidel with separate boundary-strip
//     dependencies (the small both-in-and-out working set responsible
//     for most L1 misses) and a wavefront TDG; per-iteration taskwait.
//   - Histo: two passes over the image plus histogram/output reduction
//     trees — reuse-heavy, Out-dependency dominated.
//   - Jacobi: double-buffered 1D stencil, per-iteration taskwait, so
//     almost the entire working set is predicted non-reused.
//   - Kmeans: one pass over the points (single-use, bypassable) with
//     small reused centroid/partial-sum data.
//   - KNN: every input chunk scored against each class's training set
//     (heavy read reuse), then vote tasks.
//   - LU: blocked right-looking factorization — deep reuse of panels
//     (replication-friendly) and trailing blocks (local mapping).
//   - MD5: independent single-use buffers, the bypass extreme.
//   - Redblack: two-color 1D stencil, per-iteration taskwait.
//
// Geometry scales with a memory Factor: Factor 1.0 reproduces Table II's
// input sizes and task counts exactly (slow); the default 1/32 matches
// the scaled 1MB-LLC machine (arch.ScaledConfig) while preserving every
// benchmark's input-to-LLC capacity ratio and its task count.
package workloads

import (
	"fmt"

	"tdnuca/internal/amath"
	"tdnuca/internal/taskrt"
)

// Factor scales every benchmark's memory footprint relative to Table II.
type Factor float64

// DefaultFactor matches arch.ScaledConfig's 1MB LLC (Table I has 32MB).
const DefaultFactor Factor = 1.0 / 32.0

// Spec describes one benchmark at a given scale.
type Spec struct {
	// Name is the Table II benchmark name.
	Name string
	// Problem describes the scaled problem, in the style of Table II.
	Problem string
	// InputBytes is the input set size (the Table II column).
	InputBytes uint64
	// FootprintBytes counts all data the benchmark touches, including
	// outputs and temporaries — the Fig. 3 unique-block denominator.
	FootprintBytes uint64
	// Build spawns the benchmark's tasks on the runtime (including its
	// internal taskwait phases) and returns when all work is scheduled
	// and executed.
	Build func(rt *taskrt.Runtime)
}

// tableII is the benchmark registry in Table II order: Names, All, Get
// and Has all derive from it, and Get builds only the named benchmark.
var tableII = []struct {
	name  string
	build func(Factor) Spec
}{
	{"Gauss", Gauss}, {"Histo", Histo}, {"Jacobi", Jacobi}, {"Kmeans", Kmeans},
	{"KNN", KNN}, {"LU", LU}, {"MD5", MD5}, {"Redblack", Redblack},
}

// All returns the eight benchmarks at the given scale, in Table II order.
func All(f Factor) []Spec {
	specs := make([]Spec, len(tableII))
	for i, b := range tableII {
		specs[i] = b.build(f)
	}
	return specs
}

// Get returns the named benchmark at the given scale.
func Get(name string, f Factor) (Spec, bool) {
	for _, b := range tableII {
		if b.name == name {
			return b.build(f), true
		}
	}
	return Spec{}, false
}

// Has reports whether name is a Table II benchmark, without building it.
func Has(name string) bool {
	for _, b := range tableII {
		if b.name == name {
			return true
		}
	}
	return false
}

// Names lists the benchmark names in Table II order.
func Names() []string {
	names := make([]string, len(tableII))
	for i, b := range tableII {
		names[i] = b.name
	}
	return names
}

// arena hands out non-overlapping virtual address ranges for the
// benchmark's arrays. Regions are page-aligned so distinct arrays never
// share a page (matching separate allocations in the real programs).
type arena struct {
	next amath.Addr
}

func newArena() *arena {
	return &arena{next: 1 << 22} // leave low memory for "the binary"
}

// alloc reserves bytes rounded up to a page, aligned to a page.
func (a *arena) alloc(bytes uint64) amath.Range {
	const page = 4096
	r := amath.NewRange(a.next, bytes)
	a.next = (a.next + amath.Addr(bytes) + page - 1).AlignDown(page) + page
	return r
}

// roundUp64 rounds bytes up to a multiple of the 64B cache block, with a
// minimum of one block.
func roundUp64(bytes uint64) uint64 {
	if bytes < 64 {
		return 64
	}
	return (bytes + 63) &^ 63
}

// scaleBytes applies the factor to a Table II byte count and rounds to a
// multiple of the given quantum (itself rounded to 64B).
func scaleBytes(paperBytes uint64, f Factor, quantum uint64) uint64 {
	if quantum == 0 {
		quantum = 64
	}
	b := uint64(float64(paperBytes) * float64(f))
	if b < quantum {
		return quantum
	}
	return b / quantum * quantum
}

// sweepTask spawns a task whose body streams through its dependencies
// according to their modes — the canonical compute kernel model.
func sweepTask(rt *taskrt.Runtime, name string, deps []taskrt.Dep) *taskrt.Task {
	var tk *taskrt.Task
	tk = rt.Spawn(name, deps, func(e *taskrt.Exec) { e.SweepDeps(tk) })
	return tk
}

// mb formats a byte count as MB with two decimals, as Table II does.
func mb(b uint64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

package harness

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tdnuca/internal/arch"
	"tdnuca/internal/sim"
	"tdnuca/internal/workgen"
)

// The generated-workload differential suite: three pinned generator
// parameter sets (shapes chosen to stress different policy mechanisms)
// run under the three main policies, with golden digests, cross-policy
// access-set equality, worker-count invariance and metamorphic checks.

// genGoldenParams are the pinned generator shapes of the golden file.
// Changing any knob (or the generator's expansion logic) legitimately
// requires regenerating testdata/golden_generated.txt with -update.
func genGoldenParams() []workgen.Params {
	balanced := workgen.Default()
	balanced.Seed, balanced.Depth, balanced.Width = 1, 6, 12
	balanced.Bytes = 128 << 10

	wide := workgen.Default()
	wide.Seed, wide.Depth, wide.Width = 7, 3, 24
	wide.Fanout, wide.Reuse = 4, 1
	wide.Overlap, wide.InOut = 90, 40 // hot read sets + write chains
	wide.Bytes, wide.Wait = 128<<10, 1

	deep := workgen.Default()
	deep.Seed, deep.Depth, deep.Width = 42, 12, 6
	deep.Fanout, deep.Reuse = 3, 4 // long reuse distance
	deep.Bytes, deep.Compute, deep.Wait = 256<<10, 100, 3
	return []workgen.Params{balanced, wide, deep}
}

var genKinds = []PolicyKind{SNUCA, RNUCA, TDNUCA}

func genJobs() []Job {
	cfg := goldenCfg()
	var jobs []Job
	for _, p := range genGoldenParams() {
		for _, k := range genKinds {
			jobs = append(jobs, Job{Bench: p.String(), Kind: k, Cfg: cfg})
		}
	}
	return jobs
}

// The generated reference results are computed once per test binary on
// the default worker pool and shared by every layer below.
var (
	genOnce    sync.Once
	genResults []Result
	genErr     error
)

func generatedResults(t *testing.T) []Result {
	t.Helper()
	genOnce.Do(func() {
		genResults, genErr = RunMany(genJobs(), 0)
	})
	if genErr != nil {
		t.Fatal(genErr)
	}
	return genResults
}

const genGoldenPath = "testdata/golden_generated.txt"

const genGoldenHeader = `# Golden digests of the generated-workload differential suite: three
# pinned workgen parameter sets x {S-NUCA, R-NUCA, TD-NUCA} at factor
# 1/128, seed 1 (see genGoldenParams/goldenCfg). Regenerate after an
# intentional generator or simulator change with:
#   go test ./internal/harness -run Generated -update
`

// TestGeneratedGoldenDigests pins the generated workloads exactly like
// the Table II suite: same seed and knobs must reproduce byte-identical
// digests on every machine and at every worker count.
func TestGeneratedGoldenDigests(t *testing.T) {
	results := generatedResults(t)
	got := DigestSuite(assembleSuite(genJobs(), results)).String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(genGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(genGoldenPath, []byte(genGoldenHeader+got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", genGoldenPath)
		return
	}
	want, err := os.ReadFile(genGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if stripComments(string(want)) != stripComments(got) {
		t.Errorf("generated-suite digests drifted from %s.\n--- golden ---\n%s--- got ---\n%s"+
			"If the change is intentional, regenerate with:\n"+
			"  go test ./internal/harness -run Generated -update",
			genGoldenPath, stripComments(string(want)), got)
	}
}

// TestGeneratedCrossPolicyAccessSet is the core differential property:
// the access set a policy observes is the program's, never the
// policy's. All three policies must agree on every workload's
// AccessDigest, and the digest must actually distinguish workloads.
func TestGeneratedCrossPolicyAccessSet(t *testing.T) {
	results := generatedResults(t)
	if err := VerifyAccessInvariance(results); err != nil {
		t.Error(err)
	}
	seen := map[uint64]string{}
	for _, r := range results {
		if r.AccessDigest == 0 {
			t.Errorf("%s under %s: zero access digest", r.Benchmark, r.Policy)
		}
		if prev, ok := seen[r.AccessDigest]; ok && prev != r.Benchmark {
			t.Errorf("distinct workloads %s and %s share access digest %016x",
				prev, r.Benchmark, r.AccessDigest)
		}
		seen[r.AccessDigest] = r.Benchmark
	}
}

// TestGeneratedWorkerCountInvariance: the same generated jobs on one
// worker and on the default pool are bit-for-bit identical.
func TestGeneratedWorkerCountInvariance(t *testing.T) {
	results := generatedResults(t)
	seq, err := RunMany(genJobs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRunsIdentical(results, seq); err != nil {
		t.Error(err)
	}
}

// TestGeneratedMetamorphicFootprint: growing the generated footprint
// (bytes per task) under S-NUCA can only add unique blocks, so DRAM
// traffic and touched-block counts never decrease. This needs no golden
// values — the relation itself is the oracle.
func TestGeneratedMetamorphicFootprint(t *testing.T) {
	p := workgen.Default()
	p.Seed, p.Depth, p.Width = 3, 4, 8
	cfg := goldenCfg()
	var prev Result
	for i, bytes := range []uint64{64 << 10, 256 << 10, 1 << 20} {
		p.Bytes = bytes
		r, err := Run(context.Background(), Job{Bench: p.String(), Kind: SNUCA, Cfg: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Violations) != 0 {
			t.Fatalf("bytes=%d: violations %v", bytes, r.Violations)
		}
		if i > 0 {
			if r.DRAMTraffic() < prev.DRAMTraffic() {
				t.Errorf("bytes %d -> %d: DRAM traffic fell %d -> %d",
					prev.FootprintBlocks*64, bytes, prev.DRAMTraffic(), r.DRAMTraffic())
			}
			if r.Metrics.Accesses < prev.Metrics.Accesses {
				t.Errorf("bytes %d: demand accesses fell %d -> %d",
					bytes, prev.Metrics.Accesses, r.Metrics.Accesses)
			}
			if r.FootprintBlocks <= prev.FootprintBlocks {
				t.Errorf("bytes %d: footprint did not grow: %d -> %d",
					bytes, prev.FootprintBlocks, r.FootprintBlocks)
			}
		}
		prev = r
	}
}

// TestGeneratedOnBigMeshes runs a generated workload on 8x8 and 16x16
// meshes under all three policies with the full invariant verifier on:
// the generalized topology must execute real task programs cleanly, not
// just pass unit properties.
func TestGeneratedOnBigMeshes(t *testing.T) {
	p := workgen.Default()
	p.Seed, p.Depth, p.Width = 5, 4, 16
	p.Fanout, p.Overlap, p.InOut = 3, 60, 20
	p.Bytes = 256 << 10
	for _, d := range [][2]int{{8, 8}, {16, 16}} {
		cfg := goldenCfg()
		cfg.Arch = arch.ScaledMeshConfig(d[0], d[1])
		cfg.Arch.NoCContention = true
		cfg.Arch.CheckInvariants = true
		for _, kind := range genKinds {
			r, err := Run(context.Background(), Job{Bench: p.String(), Kind: kind, Cfg: cfg})
			if err != nil {
				t.Fatalf("%dx%d %s: %v", d[0], d[1], kind, err)
			}
			if len(r.Violations) != 0 {
				t.Errorf("%dx%d %s: %d violations, first: %s",
					d[0], d[1], kind, len(r.Violations), r.Violations[0])
			}
			if r.Tasks != p.Depth*p.Width {
				t.Errorf("%dx%d %s: executed %d tasks, want %d", d[0], d[1], kind, r.Tasks, p.Depth*p.Width)
			}
			if total := r.Stack.Total(); total != r.Cycles*sim.Cycles(cfg.Arch.NumCores) {
				t.Errorf("%dx%d %s: cycle stack total %d != %d cores x %d cycles",
					d[0], d[1], kind, total, cfg.Arch.NumCores, r.Cycles)
			}
		}
	}
}

// TestGeneratedBenchRejection: malformed or out-of-envelope generator
// names fail loudly through both entry points, before any work starts.
func TestGeneratedBenchRejection(t *testing.T) {
	cfg := goldenCfg()
	for _, bench := range []string{"gen:width=0", "gen:turbo=1", "gen:seed", "NoSuchBench"} {
		if _, err := Run(context.Background(), Job{Bench: bench, Kind: SNUCA, Cfg: cfg}); err == nil {
			t.Errorf("Run(%q) accepted a bad benchmark name", bench)
		}
		if _, err := RunMany([]Job{{Bench: bench, Kind: SNUCA, Cfg: cfg}}, 2); err == nil {
			t.Errorf("RunMany(%q) accepted a bad benchmark name", bench)
		}
	}
}

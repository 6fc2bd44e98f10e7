package harness

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tdnuca/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden suite digests under testdata/")

// goldenKinds is the cross-product the golden and equivalence layers
// cover: the paper's three main policies over all eight benchmarks.
var goldenKinds = []PolicyKind{SNUCA, RNUCA, TDNUCA}

// goldenCfg must stay byte-stable: the golden digests under testdata/
// are derived from it. Changing anything here (or any simulated
// behavior) legitimately requires regenerating them with -update.
func goldenCfg() Config {
	cfg := DefaultConfig()
	cfg.Factor = 1.0 / 128.0
	cfg.Seed = 1
	cfg.Arch.CheckInvariants = true
	return cfg
}

// The sequential reference suite is computed once per test binary and
// shared by the golden, equivalence and determinism layers. It is a plain
// loop over Run on the calling goroutine — independent of RunMany's pool,
// which the equivalence test compares against it.
var (
	seqOnce  sync.Once
	seqSuite Suite
	seqErr   error
	seqTime  time.Duration
)

func sequentialSuite(t *testing.T) Suite {
	t.Helper()
	seqOnce.Do(func() {
		start := time.Now()
		seqSuite, seqErr = runSequential(goldenCfg(), goldenKinds)
		seqTime = time.Since(start)
	})
	if seqErr != nil {
		t.Fatal(seqErr)
	}
	return seqSuite
}

func runSequential(cfg Config, kinds []PolicyKind) (Suite, error) {
	s := make(Suite)
	for _, bench := range workloads.Names() {
		s[bench] = make(map[PolicyKind]Result, len(kinds))
		for _, k := range kinds {
			r, err := Run(context.Background(), Job{Bench: bench, Kind: k, Cfg: cfg})
			if err != nil {
				return nil, err
			}
			s[bench][k] = r
		}
	}
	return s, nil
}

const goldenPath = "testdata/golden_suite.txt"

const goldenHeader = `# Golden suite digests: 8 benchmarks x {S-NUCA, R-NUCA, TD-NUCA} at
# factor 1/128, seed 1, coherence checking on (see goldenCfg).
# Regenerate after an intentional behavioral change with:
#   go test ./internal/harness -run Golden -update
`

// stripComments drops the header so the comparison is over digest lines
// only.
func stripComments(s string) string {
	var lines []string
	for _, l := range strings.Split(s, "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		lines = append(lines, l)
	}
	return strings.Join(lines, "\n")
}

// TestGoldenSuiteDigests is the drift tripwire: any change to cycle
// counts, cache/NoC/TLB/RRT counters, TD classifications or verifier
// output under any golden policy changes a digest line and fails this
// test. Intentional changes are recorded with -update.
func TestGoldenSuiteDigests(t *testing.T) {
	got := DigestSuite(sequentialSuite(t)).String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(goldenHeader+got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if stripComments(string(want)) != stripComments(got) {
		t.Errorf("suite digests drifted from %s.\n--- golden ---\n%s--- got ---\n%s"+
			"If the behavioral change is intentional, regenerate with:\n"+
			"  go test ./internal/harness -run Golden -update",
			goldenPath, stripComments(string(want)), got)
	}
}

// TestParallelSequentialEquivalence proves the worker pool changes
// nothing: the full benchmark x policy cross-product digests identically
// whether runs share one goroutine or fan out across many.
func TestParallelSequentialEquivalence(t *testing.T) {
	seq := DigestSuite(sequentialSuite(t))

	start := time.Now()
	par, err := RunSuite(Job{Cfg: goldenCfg()}, 0, goldenKinds...)
	if err != nil {
		t.Fatal(err)
	}
	parTime := time.Since(start)

	if d := DigestSuite(par); !seq.Equal(d) {
		t.Errorf("parallel suite diverged from sequential.\n--- sequential ---\n%s--- parallel ---\n%s",
			seq.String(), d.String())
	}
	t.Logf("sequential %v, parallel %v with %d workers (speedup %.2fx)",
		seqTime.Round(time.Millisecond), parTime.Round(time.Millisecond),
		DefaultWorkers(), float64(seqTime)/float64(parTime))
}

// TestSameSeedDeterminism runs the parallel suite twice with the same
// seed: completion order varies between runs, the digests must not.
func TestSameSeedDeterminism(t *testing.T) {
	a, err := RunSuite(Job{Cfg: goldenCfg()}, 0, goldenKinds...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(Job{Cfg: goldenCfg()}, 4, goldenKinds...)
	if err != nil {
		t.Fatal(err)
	}
	da, db := DigestSuite(a), DigestSuite(b)
	if !da.Equal(db) {
		t.Errorf("same seed, different digests.\n--- run A ---\n%s--- run B ---\n%s", da, db)
	}
	// And a behavioral knob must actually move the digest — otherwise
	// the fingerprint is not sensitive to behavior at all. (Seed and
	// fragmentation deliberately do not qualify: TD-NUCA places by
	// dependency range, so some benchmarks are bit-identical across
	// physical layouts.)
	base := sequentialSuite(t)["LU"][TDNUCA]
	cfg := goldenCfg()
	cfg.Arch.RRTLatency += 3
	c, err := Run(context.Background(), Job{Bench: "LU", Kind: TDNUCA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest() == base.Digest() {
		t.Error("digest insensitive to RRT latency change")
	}
	cfg = goldenCfg()
	cfg.Factor /= 2
	c, err = Run(context.Background(), Job{Bench: "LU", Kind: TDNUCA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest() == base.Digest() {
		t.Error("digest insensitive to workload factor change")
	}
}

package harness

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"tdnuca/internal/faults"
	"tdnuca/internal/trace"
)

// TestRunManyMatchesRunJobByJob proves the pool changes nothing: every
// job of a mixed batch — healthy, faulted and traced — digests in RunMany
// exactly as it does run alone.
func TestRunManyMatchesRunJobByJob(t *testing.T) {
	cfg := fastCfg()
	jobs := []Job{
		{Bench: "MD5", Kind: SNUCA, Cfg: cfg},
		{Bench: "LU", Kind: TDNUCA, Cfg: cfg},
		{Bench: "Kmeans", Kind: RNUCA, Cfg: cfg},
		{Bench: "MD5", Kind: TDBypassOnly, Cfg: cfg},
		{Bench: "LU", Kind: SNUCA, Cfg: cfg, Faults: faults.ScenarioAt(&cfg.Arch, 1, 1)},
		{Bench: "MD5", Kind: TDNUCA, Cfg: cfg, Trace: &trace.Options{}},
	}
	got, err := RunMany(jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(got), len(jobs))
	}
	for i, j := range jobs {
		want, err := Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Benchmark != j.Bench || got[i].Policy != j.Kind {
			t.Errorf("job %d: result is %s/%s, want %s/%s",
				i, got[i].Benchmark, got[i].Policy, j.Bench, j.Kind)
		}
		if got[i].Digest() != want.Digest() {
			t.Errorf("job %d (%s/%s): parallel digest %016x != sequential %016x",
				i, j.Bench, j.Kind, got[i].Digest(), want.Digest())
		}
		if (got[i].Faults != nil) != (j.Faults != nil) || (got[i].Trace != nil) != (j.Trace != nil) {
			t.Errorf("job %d (%s/%s): faults/trace reports %v/%v, want %v/%v", i, j.Bench, j.Kind,
				got[i].Faults != nil, got[i].Trace != nil, j.Faults != nil, j.Trace != nil)
		}
	}
}

func TestRunManyUnknownBenchmark(t *testing.T) {
	cfg := fastCfg()
	jobs := []Job{
		{Bench: "MD5", Kind: SNUCA, Cfg: cfg},
		{Bench: "nope", Kind: SNUCA, Cfg: cfg},
	}
	if _, err := RunMany(jobs, 2); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown benchmark: err = %v", err)
	}
}

func TestRunManyUnknownPolicy(t *testing.T) {
	cfg := fastCfg()
	jobs := []Job{
		{Bench: "MD5", Kind: PolicyKind("bogus"), Cfg: cfg},
		{Bench: "MD5", Kind: SNUCA, Cfg: cfg},
	}
	if _, err := RunMany(jobs, 2); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown policy: err = %v", err)
	}
}

func TestRunManyErrorIsDeterministic(t *testing.T) {
	// With several invalid jobs the lowest-index error must win, no
	// matter how a pool would have scheduled them.
	cfg := fastCfg()
	jobs := []Job{
		{Bench: "MD5", Kind: SNUCA, Cfg: cfg},
		{Bench: "first-bad", Kind: SNUCA, Cfg: cfg},
		{Bench: "second-bad", Kind: SNUCA, Cfg: cfg},
	}
	for i := 0; i < 10; i++ {
		_, err := RunMany(jobs, 3)
		if err == nil || !strings.Contains(err.Error(), "first-bad") {
			t.Fatalf("iteration %d: err = %v, want the index-1 error", i, err)
		}
	}
}

func TestRunManyInvalidArchConfig(t *testing.T) {
	cfg := fastCfg()
	cfg.Arch.ClusterWidth, cfg.Arch.ClusterHeight = 3, 3 // invalid on a 4x4 mesh
	if _, err := RunMany([]Job{{Bench: "MD5", Kind: TDNUCA, Cfg: cfg}}, 1); err == nil {
		t.Error("invalid arch config accepted")
	}
}

func TestRunSuiteParallelUnknownPolicyAbortsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := RunSuite(Job{Cfg: fastCfg()}, 4, SNUCA, PolicyKind("bogus")); err == nil {
		t.Fatal("unknown policy accepted")
	}
	assertNoGoroutineLeak(t, before)
}

func TestRunSuiteParallelLeaksNoGoroutines(t *testing.T) {
	cfg := fastCfg()
	before := runtime.NumGoroutine()
	s, err := RunSuite(Job{Cfg: cfg}, 8, SNUCA)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) == 0 {
		t.Fatal("empty suite")
	}
	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak waits (with a deadline) for the goroutine count
// to return to its pre-call level, tolerating runtime-internal slack.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after deadline", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunManyEmptyAndSingle(t *testing.T) {
	res, err := RunMany(nil, 4)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: res=%v err=%v", res, err)
	}
	res, err = RunMany([]Job{{Bench: "MD5", Kind: SNUCA, Cfg: fastCfg()}}, 16)
	if err != nil || len(res) != 1 || res[0].Cycles == 0 {
		t.Errorf("single batch: res=%v err=%v", res, err)
	}
}

func TestDigestSensitivity(t *testing.T) {
	r, err := Run(context.Background(), Job{Bench: "MD5", Kind: SNUCA, Cfg: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	base := r.Digest()
	mut := r
	mut.Cycles++
	if mut.Digest() == base {
		t.Error("digest insensitive to Cycles")
	}
	mut = r
	mut.Metrics.LLCHits++
	if mut.Digest() == base {
		t.Error("digest insensitive to an LLC counter")
	}
	mut = r
	mut.Violations = append(mut.Violations, "synthetic violation")
	if mut.Digest() == base {
		t.Error("digest insensitive to violations")
	}
	mut = r
	mut.TDClassification.NotReused++
	if mut.Digest() == base {
		t.Error("digest insensitive to TD classification")
	}
	mut = r
	mut.DataMovement++
	if mut.Digest() == base {
		t.Error("digest insensitive to NoC byte-hops")
	}
}

func TestDigestSuiteCanonicalOrder(t *testing.T) {
	cfg := fastCfg()
	s, err := RunSuite(Job{Cfg: cfg}, 0, TDNUCA, SNUCA) // deliberately unsorted
	if err != nil {
		t.Fatal(err)
	}
	d := DigestSuite(s)
	if len(d.Entries) != 16 {
		t.Fatalf("entries = %d, want 16", len(d.Entries))
	}
	for i := 1; i < len(d.Entries); i++ {
		a, b := d.Entries[i-1], d.Entries[i]
		if a.Benchmark > b.Benchmark ||
			(a.Benchmark == b.Benchmark && string(a.Policy) >= string(b.Policy)) {
			t.Errorf("entries not canonically sorted at %d: %v then %v", i, a, b)
		}
	}
	// Rendering round-trips through the same canonical order every time.
	if d.String() != DigestSuite(s).String() {
		t.Error("DigestSuite not stable over map iteration")
	}
}

func BenchmarkRunSuiteOneWorker(b *testing.B) {
	cfg := fastCfg()
	cfg.Arch.CheckInvariants = false
	for i := 0; i < b.N; i++ {
		if _, err := RunSuite(Job{Cfg: cfg}, 1, SNUCA, RNUCA, TDNUCA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSuite(b *testing.B) {
	cfg := fastCfg()
	cfg.Arch.CheckInvariants = false
	for i := 0; i < b.N; i++ {
		if _, err := RunSuite(Job{Cfg: cfg}, 0, SNUCA, RNUCA, TDNUCA); err != nil {
			b.Fatal(err)
		}
	}
}

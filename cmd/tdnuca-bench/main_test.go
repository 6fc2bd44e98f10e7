package main

import (
	"bytes"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: tdnuca
BenchmarkMemoryAccess-4          	 7000000	       82.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkMemoryAccessEvict-4     	 3000000	      210.0 ns/op	      16 B/op	       1 allocs/op
BenchmarkFullSuite-4             	       1	3200000000 ns/op	130000000 B/op	 4600000 allocs/op
BenchmarkFullSuiteSequential-4   	       1	3300000000 ns/op	131000000 B/op	 4650000 allocs/op
BenchmarkFullSuiteParallel2-4    	       1	1800000000 ns/op	132000000 B/op	 4700000 allocs/op
BenchmarkFullSuiteParallel4-4    	       1	1000000000 ns/op	133000000 B/op	 4750000 allocs/op
PASS
`

func parseSample(t *testing.T) map[string]Result {
	t.Helper()
	var echo bytes.Buffer
	results, err := parse(strings.NewReader(sampleBenchOutput), &echo)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if echo.String() != sampleBenchOutput {
		t.Fatalf("parse did not echo its input verbatim")
	}
	return results
}

func TestParseExtractsResults(t *testing.T) {
	results := parseSample(t)
	if len(results) != 6 {
		t.Fatalf("parsed %d results, want 6: %v", len(results), results)
	}
	ma, ok := results["MemoryAccess"]
	if !ok {
		t.Fatalf("MemoryAccess missing (GOMAXPROCS suffix not stripped?): %v", results)
	}
	if ma.NsPerOp != 82.5 || ma.BytesPerOp != 0 || ma.AllocsPerOp != 0 {
		t.Fatalf("MemoryAccess = %+v", ma)
	}
	ev := results["MemoryAccessEvict"]
	if ev.NsPerOp != 210.0 || ev.BytesPerOp != 16 || ev.AllocsPerOp != 1 {
		t.Fatalf("MemoryAccessEvict = %+v", ev)
	}
}

func TestBuildReportMultiCPU(t *testing.T) {
	results := parseSample(t)
	rep := buildReport(results, 4)

	if rep.Schema != "tdnuca-bench/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.NumCPU != 4 {
		t.Fatalf("num_cpu=%d", rep.NumCPU)
	}
	if got := rep.Derived["ns_per_access"]; got != 82.5 {
		t.Fatalf("ns_per_access = %v", got)
	}
	// seq 3.3e9 / p4 1.0e9 = 3.3; seq / p2 1.8e9 = 1.8333...
	if got := rep.Derived["full_suite_parallel_speedup"]; got < 3.29 || got > 3.31 {
		t.Fatalf("full_suite_parallel_speedup = %v, want ~3.3", got)
	}
	if got := rep.Derived["full_suite_parallel2_speedup"]; got < 1.83 || got > 1.84 {
		t.Fatalf("full_suite_parallel2_speedup = %v, want ~1.83", got)
	}
	if len(rep.Notes) != 0 {
		t.Fatalf("unexpected notes on multi-CPU host: %v", rep.Notes)
	}
}

func TestBuildReportSingleCPUOmitsParallelSpeedups(t *testing.T) {
	results := parseSample(t)
	rep := buildReport(results, 1)

	for _, key := range []string{"full_suite_parallel_speedup", "full_suite_parallel2_speedup"} {
		if v, ok := rep.Derived[key]; ok {
			t.Errorf("derived[%q] = %v present on single-CPU host; want omitted", key, v)
		}
	}
	// The non-parallel derived numbers must survive the gate untouched.
	for _, key := range []string{"ns_per_access", "ns_per_access_evict", "full_suite_seconds", "full_suite_speedup_vs_baseline"} {
		if _, ok := rep.Derived[key]; !ok {
			t.Errorf("derived[%q] missing on single-CPU host", key)
		}
	}
	if len(rep.Notes) != 1 || !strings.Contains(rep.Notes[0], "parallel speedups omitted") {
		t.Fatalf("notes = %v, want one note explaining the omission", rep.Notes)
	}
}

func TestBuildReportSingleCPUNoParallelRunsNoNote(t *testing.T) {
	// A run that never exercised the parallel benchmarks should not
	// claim anything was omitted.
	results := map[string]Result{
		"MemoryAccess": {NsPerOp: 80},
		"FullSuite":    {NsPerOp: 3.0e9},
	}
	rep := buildReport(results, 1)
	if len(rep.Notes) != 0 {
		t.Fatalf("notes = %v, want none when no parallel benchmarks ran", rep.Notes)
	}
}

func TestBuildReportFallsBackToFullSuiteBaseline(t *testing.T) {
	// Without FullSuiteSequential the speedup denominator is FullSuite.
	results := map[string]Result{
		"FullSuite":          {NsPerOp: 3.0e9},
		"FullSuiteParallel4": {NsPerOp: 1.5e9},
	}
	rep := buildReport(results, 8)
	if got := rep.Derived["full_suite_parallel_speedup"]; got != 2.0 {
		t.Fatalf("full_suite_parallel_speedup = %v, want 2.0", got)
	}
}

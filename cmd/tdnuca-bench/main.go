// Command tdnuca-bench turns `go test -bench` output into the
// machine-readable BENCH_simcore.json tracked by EXPERIMENTS.md. It
// reads benchmark result lines from stdin, extracts ns/op, B/op and
// allocs/op, derives the headline simulator-core numbers (ns per
// simulated access, allocs per access, full-suite wall seconds) and
// writes them next to the frozen pre-optimization baseline so the
// speedup trajectory is visible in one file.
//
// Usage:
//
//	go test -run '^$' -bench 'MemoryAccess|FullSuite' -benchmem . | tdnuca-bench -o BENCH_simcore.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// baseline holds the pre-optimization numbers, measured on the commit
// immediately before the hot-path overhaul (same goldenCfg workload,
// Intel Xeon @ 2.10GHz). They are frozen here so every later run of
// `make bench` reports its improvement against the same origin.
var baseline = map[string]Result{
	"MemoryAccess":      {NsPerOp: 167.1, BytesPerOp: 0, AllocsPerOp: 0},
	"MemoryAccessEvict": {NsPerOp: 459.2, BytesPerOp: 16, AllocsPerOp: 1},
	"FullSuite":         {NsPerOp: 6915328440, BytesPerOp: 260345640, AllocsPerOp: 9285639},
}

// Result is one benchmark's measured values.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the BENCH_simcore.json schema (documented in
// EXPERIMENTS.md; bump the Schema string on incompatible changes).
// Derived keys are only present when they are meaningful on the
// measuring host — in particular the parallel-speedup keys are omitted
// on single-CPU hosts, with a note explaining why (a float64 map cannot
// hold null, so absence + notes is the schema's "not applicable").
type Report struct {
	Schema     string             `json:"schema"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	Benchmarks map[string]Result  `json:"benchmarks"`
	Baseline   map[string]Result  `json:"baseline"`
	Derived    map[string]float64 `json:"derived"`
	Notes      []string           `json:"notes,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_simcore.json", "output file (\"-\" for stdout)")
	flag.Parse()

	results, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-bench:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "tdnuca-bench: no benchmark lines on stdin")
		os.Exit(1)
	}

	rep := buildReport(results, runtime.NumCPU())

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tdnuca-bench: wrote %d results to %s\n", len(results), *out)
}

// buildReport derives the headline numbers from the parsed results.
// numCPU is a parameter (not read from runtime here) so tests can pin
// both the single-CPU and multi-CPU paths.
func buildReport(results map[string]Result, numCPU int) Report {
	rep := Report{
		Schema:     "tdnuca-bench/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     numCPU,
		Benchmarks: results,
		Baseline:   baseline,
		Derived:    map[string]float64{},
	}
	if r, ok := results["MemoryAccess"]; ok {
		rep.Derived["ns_per_access"] = r.NsPerOp
		rep.Derived["allocs_per_access"] = r.AllocsPerOp
	}
	if r, ok := results["MemoryAccessEvict"]; ok {
		rep.Derived["ns_per_access_evict"] = r.NsPerOp
		rep.Derived["allocs_per_access_evict"] = r.AllocsPerOp
	}
	if r, ok := results["FullSuite"]; ok {
		rep.Derived["full_suite_seconds"] = r.NsPerOp / 1e9
		if base := baseline["FullSuite"].NsPerOp; r.NsPerOp > 0 {
			rep.Derived["full_suite_speedup_vs_baseline"] = base / r.NsPerOp
		}
	}
	// Run-level parallel speedup: the single-goroutine suite over the
	// multi-worker run pool (digest-identical by the harness equivalence
	// tests). On a single-CPU host the pool cannot physically run
	// anything in parallel — the ratio would just measure scheduling
	// overhead (historically recorded as a bogus ~0.92x "speedup") — so
	// the keys are omitted and a note records why.
	if numCPU <= 1 {
		hasParallel := false
		for _, name := range []string{"FullSuiteParallel4", "FullSuiteParallel2"} {
			if results[name].NsPerOp > 0 {
				hasParallel = true
			}
		}
		if hasParallel {
			rep.Notes = append(rep.Notes,
				"parallel speedups omitted: host has a single schedulable CPU, so the worker pool cannot run anything in parallel and the ratio would only measure scheduling overhead")
		}
		return rep
	}
	seqNs := results["FullSuiteSequential"].NsPerOp
	if seqNs == 0 {
		seqNs = results["FullSuite"].NsPerOp
	}
	if p4 := results["FullSuiteParallel4"].NsPerOp; p4 > 0 && seqNs > 0 {
		rep.Derived["full_suite_parallel_speedup"] = seqNs / p4
	}
	if p2 := results["FullSuiteParallel2"].NsPerOp; p2 > 0 && seqNs > 0 {
		rep.Derived["full_suite_parallel2_speedup"] = seqNs / p2
	}
	return rep
}

// parse extracts `BenchmarkName  N  X ns/op [Y B/op  Z allocs/op]`
// lines, echoing everything it reads to echo so the tool can sit in a
// pipe without hiding the raw `go test` output.
func parse(r io.Reader, echo io.Writer) (map[string]Result, error) {
	results := map[string]Result{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix go test appends.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res Result
		got := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp, got = v, true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if got {
			results[name] = res
		}
	}
	return results, sc.Err()
}

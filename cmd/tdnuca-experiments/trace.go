package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"tdnuca"
	"tdnuca/internal/harness"
	"tdnuca/internal/sim"
)

// runTraced executes one traced run and writes the Chrome trace plus the
// interval CSV/JSON time series, then validates what it wrote: the JSON
// must parse, carry task slices, and the cycle stack must sum exactly to
// cores times makespan. Any failure exits non-zero.
func runTraced(cfg tdnuca.ExperimentConfig, spec, out string, interval uint64) {
	bench, name, _ := strings.Cut(spec, ":")
	kind := tdnuca.TDNUCA
	if name != "" {
		k, ok := harness.ParsePolicy(name)
		if !ok {
			fail(fmt.Errorf("unknown policy %q in -trace", name))
		}
		kind = k
	}

	res, err := tdnuca.RunExperiment(context.Background(), tdnuca.ExperimentJob{
		Bench: bench, Kind: kind, Cfg: cfg,
		Trace: &tdnuca.TraceOptions{Interval: sim.Cycles(interval)},
	})
	fail(err)
	data := res.Trace
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "COHERENCE VIOLATION %s/%s: %s\n", bench, kind, v)
	}

	f, err := os.Create(out)
	fail(err)
	err = tdnuca.WriteChromeTrace(f, data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	fail(err)

	csvPath, jsonPath := out+".intervals.csv", out+".intervals.json"
	writeTo := func(path string, write func(io.Writer) error) {
		f, err := os.Create(path)
		fail(err)
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fail(err)
	}
	writeTo(csvPath, data.WriteIntervalsCSV)
	writeTo(jsonPath, data.WriteIntervalsJSON)

	fail(validateChrome(out, len(data.Tasks)))
	total := res.Cycles * sim.Cycles(cfg.Arch.NumCores)
	if got := res.Stack.Total(); got != total {
		fail(fmt.Errorf("cycle stack sums to %d, want %d cores * %d cycles = %d",
			got, cfg.Arch.NumCores, res.Cycles, total))
	}

	fmt.Printf("%s / %s: %d cycles, %d tasks, %d events (%d dropped), %d interval samples\n",
		bench, kind, res.Cycles, res.Tasks, len(data.Events), data.Dropped, len(data.Samples))
	fmt.Printf("wrote %s, %s, %s\n", out, csvPath, jsonPath)
	fmt.Printf("cycle stack (of %d aggregate core-cycles):\n", total)
	for _, c := range res.Stack.Components() {
		fmt.Printf("  %-9s %12d  %5.1f%%\n", c.Name, c.Cycles, 100*float64(c.Cycles)/float64(total))
	}
}

// validateChrome re-reads the written trace and checks it is valid JSON
// with a non-empty traceEvents array containing the expected task slices.
func validateChrome(path string, wantTasks int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s: not valid trace JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: empty traceEvents", path)
	}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			slices++
		}
	}
	if slices != wantTasks {
		return fmt.Errorf("%s: %d task slices in trace, want %d", path, slices, wantTasks)
	}
	return nil
}

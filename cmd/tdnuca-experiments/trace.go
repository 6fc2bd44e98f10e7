package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tdnuca"
	"tdnuca/internal/sim"
)

// writeTrace writes a traced run's Chrome trace to the -trace path and
// its interval series next to it (.intervals.csv, .intervals.json), then
// validates what it wrote: the JSON must parse and carry one slice per
// task, and the cycle stack must sum exactly to cores times makespan.
func (c *cli) writeTrace(res tdnuca.Result) error {
	data, out := res.Trace, c.trace
	csvPath, jsonPath := out+".intervals.csv", out+".intervals.json"
	writeChrome := func(w io.Writer) error { return tdnuca.WriteChromeTrace(w, data) }
	if err := writeFile(out, writeChrome); err != nil {
		return err
	}
	if err := writeFile(csvPath, data.WriteIntervalsCSV); err != nil {
		return err
	}
	if err := writeFile(jsonPath, data.WriteIntervalsJSON); err != nil {
		return err
	}
	if err := validateChrome(out, len(data.Tasks)); err != nil {
		return err
	}
	cores := c.cfg.Arch.NumCores
	total := res.Cycles * sim.Cycles(cores)
	if got := res.Stack.Total(); got != total {
		return fmt.Errorf("cycle stack sums to %d, want %d cores * %d cycles = %d",
			got, cores, res.Cycles, total)
	}

	w := c.stdout
	fmt.Fprintf(w, "%s / %s: %d cycles, %d tasks, %d events (%d dropped), %d interval samples\n",
		res.Benchmark, res.Policy, res.Cycles, res.Tasks, len(data.Events), data.Dropped, len(data.Samples))
	fmt.Fprintf(w, "wrote %s, %s, %s\n", out, csvPath, jsonPath)
	fmt.Fprintf(w, "cycle stack (of %d aggregate core-cycles):\n", total)
	for _, sc := range res.Stack.Components() {
		fmt.Fprintf(w, "  %-9s %12d  %5.1f%%\n", sc.Name, sc.Cycles, 100*float64(sc.Cycles)/float64(total))
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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

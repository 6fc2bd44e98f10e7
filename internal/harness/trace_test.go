package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
	"tdnuca/internal/workloads"
)

// traceTestCfg mirrors goldenCfg: the small factor keeps the full
// benchmark x policy sweep fast while exercising every subsystem.
func traceTestCfg() Config {
	cfg := DefaultConfig()
	cfg.Factor = workloads.Factor(1.0 / 128)
	return cfg
}

// TestTracingDigestNeutral proves attaching the tracer is pure
// observation: for every benchmark under every policy, the traced run's
// Result — including the always-on cycle stack — digests identically to
// the untraced run's.
func TestTracingDigestNeutral(t *testing.T) {
	cfg := traceTestCfg()
	kinds := []PolicyKind{SNUCA, RNUCA, TDNUCA}
	for _, bench := range workloads.Names() {
		for _, kind := range kinds {
			plain, err := Run(context.Background(), Job{Bench: bench, Kind: kind, Cfg: cfg})
			if err != nil {
				t.Fatal(err)
			}
			// 4M-event capacity: the chattiest 1/128-scale run (Redblack
			// under S-NUCA) emits ~3.2M events, and the zero-drop check
			// below wants the buffer to hold all of them.
			traced, err := Run(context.Background(), Job{Bench: bench, Kind: kind, Cfg: cfg, Trace: &trace.Options{Capacity: 4 << 20}})
			if err != nil {
				t.Fatal(err)
			}
			data := traced.Trace
			if pd, td := plain.Digest(), traced.Digest(); pd != td {
				t.Errorf("%s/%s: traced digest %x != untraced %x — tracing perturbed the run", bench, kind, td, pd)
			}
			if len(data.Events) == 0 {
				t.Errorf("%s/%s: traced run produced no events", bench, kind)
			}
			if data.Dropped != 0 {
				t.Errorf("%s/%s: %d events dropped at this scale; raise the test capacity", bench, kind, data.Dropped)
			}
		}
	}
}

// TestCycleStackSumsToTotal pins the cycle-stack invariant: every
// component is non-wrapped and the stack's Total() equals NumCores times
// the makespan exactly, for every benchmark and policy.
func TestCycleStackSumsToTotal(t *testing.T) {
	cfg := traceTestCfg()
	kinds := []PolicyKind{SNUCA, RNUCA, TDNUCA}
	for _, bench := range workloads.Names() {
		for _, kind := range kinds {
			r, err := Run(context.Background(), Job{Bench: bench, Kind: kind, Cfg: cfg})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range r.Violations {
				if strings.Contains(v, "cycle stack") {
					t.Fatalf("%s/%s: %s", bench, kind, v)
				}
			}
			total := r.Cycles * sim.Cycles(cfg.Arch.NumCores)
			if got := r.Stack.Total(); got != total {
				t.Errorf("%s/%s: stack sums to %d, want %d (makespan %d x %d cores)",
					bench, kind, got, total, r.Cycles, cfg.Arch.NumCores)
			}
			// Idle <= total guards against unsigned wraparound, which the
			// equality above alone could not distinguish from a correct sum.
			if r.Stack.Idle > total {
				t.Errorf("%s/%s: idle %d exceeds total %d (wrapped subtraction?)", bench, kind, r.Stack.Idle, total)
			}
		}
	}
}

// TestTraceExports sanity-checks the run-attached export surface end to
// end on one benchmark: the Chrome trace parses as JSON with one slice
// per executed task, and the interval CSV has the documented header and
// one row per sample.
func TestTraceExports(t *testing.T) {
	cfg := traceTestCfg()
	res, err := Run(context.Background(), Job{Bench: "LU", Kind: TDNUCA, Cfg: cfg, Trace: &trace.Options{Interval: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	data := res.Trace

	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, data); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			slices++
		}
	}
	if slices != res.Tasks {
		t.Errorf("Chrome trace has %d task slices, want %d", slices, res.Tasks)
	}
	if _, ok := doc.OtherData["stack_compute"]; !ok {
		t.Error("Chrome trace otherData lacks the cycle-stack entries")
	}

	var csv bytes.Buffer
	if err := data.WriteIntervalsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	const header = "start_cycle,l1_hits,l1_misses,llc_hits,llc_misses,byte_hops,dram_accesses,rrt_occupancy"
	if lines[0] != header {
		t.Errorf("CSV header = %q, want %q", lines[0], header)
	}
	if len(lines)-1 != len(data.Samples) {
		t.Errorf("CSV has %d rows, want %d samples", len(lines)-1, len(data.Samples))
	}
}

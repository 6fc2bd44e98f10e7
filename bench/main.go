// Command bench is the repository's end-to-end benchmark. It runs one
// workload of the TD-NUCA simulator and its experiment service, checks
// that every output is correct, and prints one JSON result line:
//
//	bash bench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off and drift-compensated (calib.go). With --trace 1 a separate
// traced pass times the calls into each layer (traced.go, serve.go) and
// the layer probes run (probes.go); the result carries the per-layer
// metrics and the spans are written as Chrome trace_event JSON.
// --workload all runs every workload in both modes, each in its own child
// process. BENCHMARK.json lists the metrics; README.md explains them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"tdnuca/internal/workloads"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of a --trace 0 run, identical for every
// workload. A repetition is one paper suite, one TD+S pair of the
// generated DAG, or one serve round.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a --trace 1 run. A layer the workload never
// calls reads 0.
var perLayer = []metricDef{
	{"harness.run_ms", "ms", "lower"},
	{"taskrt.self_us_per_task", "us", "lower"},
	{"taskrt.spawn_ns", "ns", "lower"},
	{"taskrt.dispatch_ns", "ns", "lower"},
	{"core.task_created_us", "us", "lower"},
	{"core.task_starting_us", "us", "lower"},
	{"core.task_ended_us", "us", "lower"},
	{"core.rrt_lookup_ns", "ns", "lower"},
	{"core.rrt_insert_ns", "ns", "lower"},
	{"policy.place_ns", "ns", "lower"},
	{"policy.place_ns.snuca", "ns", "lower"},
	{"policy.place_ns.rnuca", "ns", "lower"},
	{"policy.place_ns.tdnuca", "ns", "lower"},
	{"machine.access_ns", "ns", "lower"},
	{"machine.maccesses_per_s", "M/s", "higher"},
	{"machine.new_us", "us", "lower"},
	{"machine.access_l1hit_ns", "ns", "lower"},
	{"machine.access_llchit_ns", "ns", "lower"},
	{"machine.access_evict_ns", "ns", "lower"},
	{"vm.tlb_access_ns", "ns", "lower"},
	{"cache.access_hit_ns", "ns", "lower"},
	{"cache.insert_evict_ns", "ns", "lower"},
	{"noc.send_ns", "ns", "lower"},
	{"noc.send_at_contended_ns", "ns", "lower"},
	{"client.submit_cached_us", "us", "lower"},
	{"client.submit_cold_us", "us", "lower"},
	{"client.await_cold_ms", "ms", "lower"},
	{"client.result_us", "us", "lower"},
	{"client.cached_p50_us", "us", "lower"},
	{"client.cached_p99_us", "us", "lower"},
	{"client.cold_p50_ms", "ms", "lower"},
	{"serve.disk_hit_us", "us", "lower"},
	{"serve.coalesced_hit_us", "us", "lower"},
	{"serve.inproc_submit_us", "us", "lower"},
	{"taskrt.tasks", "count", "lower"},
	{"machine.accesses", "count", "lower"},
	{"machine.l1_hit_ratio", "ratio", "higher"},
	{"machine.llc_accesses", "count", "lower"},
	{"machine.llc_hit_ratio", "ratio", "higher"},
	{"machine.dram_accesses", "count", "lower"},
	{"machine.flushed_blocks", "count", "lower"},
	{"vm.tlb_miss_ratio", "ratio", "lower"},
	{"noc.messages", "count", "lower"},
	{"noc.queue_share", "ratio", "lower"},
	{"core.rrt_lookups", "count", "lower"},
	{"core.register_failures", "count", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.coalesced", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"client.retries", "count", "lower"},
	{"sim.td_speedup", "x", "higher"},
	{"sim.td_llc_ratio", "x", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// workload is one entry of the benchmark: how to measure it with tracing
// off (end-to-end metrics) and with tracing on (per-layer metrics).
type workload struct {
	name   string
	run    func(*bench) error
	traced func(*bench) error
}

var workloadList = []workload{
	{"paper-suite", runPaperSuite, tracePaperSuite},
	{"taskgraph-fine", runTaskgraph, traceTaskgraph},
	{"serve-mix", runServeMix, traceServeMix},
}

// config sizes one invocation. The command line sets the workload, seed,
// measuring time and trace mode; toy shrinks every workload to smoke size
// for the smoke test.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measuring budget of the repeated part
	trace    bool
	workDir  string // scratch space: serve cache directories, the traced pass's spans
	toy      bool
}

func defaultConfig() config {
	return config{seed: 1, seconds: 30, workDir: ".bench_build"}
}

// factor is the memory factor of the simulation workloads.
func (c config) factor() workloads.Factor {
	if c.toy {
		return toyFactor
	}
	return workloads.DefaultFactor
}

// minReps is how many repetitions run even past the time budget; a toy
// run makes exactly one.
func (c config) minReps() int {
	if c.toy {
		return 1
	}
	return 3
}

// setupsPerRep is how many set-ups are timed before each repetition.
func (c config) setupsPerRep() int {
	if c.toy {
		return 1
	}
	return 3
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is the state of one invocation: its configuration, the drift
// calibrator, the collected metrics and operation counts, the spans of
// the traced pass, and the log (standard error).
type bench struct {
	cfg       config
	cal       *calibrator
	metrics   map[string]float64
	attempted int
	failed    int
	spans     *spanLog
	log       io.Writer
}

func newBench(cfg config, log io.Writer) *bench {
	return &bench{cfg: cfg, cal: newCalibrator(), metrics: map[string]float64{}, spans: newSpanLog(), log: log}
}

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.log, format+"\n", args...) }

// fail records one failed operation with its reason.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.logf("FAIL: "+format, args...)
}

// check counts one attempted check and records a failure when !ok.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// result assembles the output line from the metric catalog of the mode:
// every catalogued metric must have been set.
func (b *bench) result() (result, error) {
	defs := endToEnd
	if b.cfg.trace {
		defs = perLayer
	}
	r := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !ok {
			return r, fmt.Errorf("bench: workload %s did not report %s", b.cfg.workload, d.Name)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("bench: workload %s attempted nothing", b.cfg.workload)
	}
	return r, nil
}

// runOne measures one workload in-process.
func runOne(cfg config, log io.Writer) (result, error) {
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == cfg.workload {
			w = &workloadList[i]
		}
	}
	if w == nil {
		return result{}, fmt.Errorf("bench: unknown workload %q", cfg.workload)
	}
	b := newBench(cfg, log)
	if cfg.trace {
		for _, d := range perLayer {
			b.metrics[d.Name] = 0 // a layer not called, or left unmeasured by a failure
		}
		if err := w.traced(b); err != nil {
			return result{}, err
		}
		if err := runProbes(b); err != nil {
			return result{}, err
		}
		if err := b.spans.write(filepath.Join(cfg.workDir, "bench-trace-"+cfg.workload+".json")); err != nil {
			return result{}, err
		}
	} else if err := w.run(b); err != nil {
		return result{}, err
	}
	return b.result()
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := defaultConfig()
	name := fs.String("workload", "all", "paper-suite, taskgraph-fine, serve-mix, or all")
	seed := fs.Uint64("seed", def.seed, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", int(def.seconds), "measuring time of the repeated part, in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass and probes")
	out := fs.String("out", "", "also write the result JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var r result
	var err error
	if *name == "all" {
		r, err = runAll(*seed, *seconds, stderr)
	} else {
		cfg := def
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace = *name, *seed, float64(*seconds), *traceMode == 1
		r, err = runOne(cfg, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in both trace modes, each in its own child
// process (so max_rss_mb is the workload's own), one after another. The
// combined result keys every child's metrics "<workload>/<metric>".
func runAll(seed uint64, seconds int, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, fmt.Errorf("bench: locating own binary: %w", err)
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadList {
		for _, mode := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", mode)
			cmd.Stderr = stderr
			out, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return all, fmt.Errorf("bench: %s --trace %s: %v (no result line: %v)", w.name, mode, runErr, err)
			}
			all.Correct = all.Correct && r.Correct && runErr == nil
			all.Attempted += r.Attempted
			all.Failed += r.Failed
			for k, m := range r.Metrics {
				all.Metrics[w.name+"/"+k] = m
			}
		}
	}
	return all, nil
}

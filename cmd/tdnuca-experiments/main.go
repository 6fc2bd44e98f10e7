// Command tdnuca-experiments is the simulator's command line: it runs
// one workload under one or every NUCA policy, regenerates the paper's
// tables and figures, and runs the suite on degraded hardware.
//
// Usage:
//
//	tdnuca-experiments -bench LU                  # every policy, one comparison table
//	tdnuca-experiments -bench LU -policy tdnuca   # one run, every metric
//	tdnuca-experiments -bench LU -trace lu.json -interval 5000   # traced TD-NUCA run
//	tdnuca-experiments -bench gen:seed=3,depth=8 -mesh 8x8       # generated workload, 8x8 mesh
//	tdnuca-experiments -fig 8                     # one table or figure (list in -h)
//	tdnuca-experiments -all                       # every table and figure
//	tdnuca-experiments -digest                    # the figure suite's behavioral digest
//	tdnuca-experiments -faults default            # degraded suite (seeded severity-3 faults)
//	tdnuca-experiments -faults bank=3@20000,link=1-2@50000,rrt=8@80000
//
// -bench, -faults and the figure flags (-fig, -all, or -digest alone)
// are exclusive modes: naming none or several is a usage error (exit 2),
// as are -policy and -trace without -bench.
//
// -bench takes a Table II or generator name ("gen:seed=3,..."; unset
// knobs keep their defaults, schema in EXPERIMENTS.md). Alone it runs
// every policy, checks that all saw the same task-graph access set, and
// prints a comparison normalized to S-NUCA. -policy runs one policy and
// prints every metric. -trace FILE traces that run (default TD-NUCA),
// writes a Perfetto-loadable Chrome trace to FILE plus
// FILE.intervals.csv and FILE.intervals.json, validates them, and prints
// the cycle stack. -faults runs the suite with a fault scenario injected
// (DESIGN.md §11); "default" is the seeded severity-3 ladder.
//
// The figure flags select entries of harness.Figures (Table II and the
// sweeps included) and run them as one batch that simulates a run two
// figures share once; -digest there appends the S-NUCA, R-NUCA and
// TD-NUCA figure suite's digest, in -bench and -faults the runs'. In
// every mode -mesh swaps in a generalized WxH mesh, and -check enables
// the coherence checker: a violation in any run is printed to stderr
// and exits 1. Runs fan out over -workers (one per CPU by default) with
// results bit-for-bit identical to -workers 1: every run owns its
// machine and runtime.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tdnuca"
	"tdnuca/internal/arch"
	"tdnuca/internal/harness"
	"tdnuca/internal/profiling"
	"tdnuca/internal/sim"
)

// errUsage reports a command line that names no mode, more than one, or
// a flag outside its mode; main exits 2 on it.
var errUsage = errors.New("usage error")

// errViolations reports that the coherence checker found violations.
var errViolations = errors.New("coherence violations")

// benchPolicies is the row order of the -bench comparison table.
var benchPolicies = []tdnuca.PolicyKind{
	tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA, tdnuca.TDBypassOnly, tdnuca.TDNoISA,
}

// corePolicies are the policies of the figure and degraded suites.
var corePolicies = []tdnuca.PolicyKind{tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, "tdnuca-experiments:", err)
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// cli is one invocation: the parsed flags, the experiment configuration
// they describe, and where results (stdout) and progress and violations
// (stderr) go.
type cli struct {
	stdout, stderr io.Writer
	cfg            tdnuca.ExperimentConfig

	bench, policy, trace, fig, faults string
	all, digest                       bool
	interval, faultSeed               uint64
	workers                           int
}

// run is the whole command. It parses args, runs the selected mode and
// returns errUsage for a malformed command line, errViolations when the
// coherence checker found any, and the first failure otherwise. The
// profiler stops before it returns.
func run(args []string, stdout, stderr io.Writer) (err error) {
	c := &cli{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("tdnuca-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.bench, "bench", "", "run one workload under every policy: a Table II name or a generator name like gen:seed=3,depth=8,width=16 (unset knobs keep defaults; schema in EXPERIMENTS.md)")
	fs.StringVar(&c.policy, "policy", "", "with -bench: run only this policy and print every metric: snuca | rnuca | tdnuca | bypass | noisa (or any alias, any case)")
	fs.StringVar(&c.trace, "trace", "", "with -bench: trace the -policy run (default TD-NUCA) and write its Chrome trace to this path, plus <path>.intervals.csv and <path>.intervals.json")
	fs.Uint64Var(&c.interval, "interval", 0, "interval sample length in cycles for -trace (0 = default)")
	fs.StringVar(&c.fig, "fig", "", "figure to regenerate: 3, 8..15, rrt, occupancy, flush, rtoverhead, ablation, clusters, resilience, cyclestack, table1, table2")
	fs.BoolVar(&c.all, "all", false, "regenerate every table and figure")
	fs.BoolVar(&c.digest, "digest", false, "print behavioral digests: of the -bench or -faults runs, else of the S/R/TD figure suite")
	fs.StringVar(&c.faults, "faults", "", "run the suite degraded: a fault scenario like bank=3@20000,link=1-2@50000,rrt=8@80000, or 'default' for the seeded severity-3 ladder")
	fs.Uint64Var(&c.faultSeed, "fault-seed", 1, "seed for generated fault scenarios (-faults default, -fig resilience)")
	fs.IntVar(&c.workers, "workers", 0, "parallel simulation workers (0 = one per CPU, 1 = sequential)")
	factor := fs.Float64("factor", float64(tdnuca.DefaultWorkloadFactor), "workload memory factor (1.0 = Table II scale)")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	check := fs.Bool("check", false, "enable the functional coherence checker (slower); violations fail the command")
	mesh := fs.String("mesh", "", "override the mesh topology, e.g. 8x8 or 16x16 (scaled per-tile caches, corner memory controllers)")
	cpuprof := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprof := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	usage := func(msg string) error {
		fmt.Fprintln(stderr, "tdnuca-experiments:", msg)
		fs.Usage()
		return errUsage
	}
	modes := 0
	for _, on := range []bool{c.bench != "", c.faults != "", c.fig != "" || c.all} {
		if on {
			modes++
		}
	}
	switch {
	case fs.NArg() > 0:
		return usage(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	case modes > 1:
		return usage("-bench, -faults and -fig/-all are exclusive modes")
	case modes == 0 && !c.digest:
		return usage("name a mode: -bench, -faults, or -fig/-all/-digest")
	case c.bench == "" && (c.policy != "" || c.trace != ""):
		return usage("-policy and -trace need -bench")
	}

	prof, err := profiling.Start(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); err == nil {
			err = perr
		}
	}()

	if c.workers <= 0 {
		c.workers = tdnuca.ExperimentWorkers()
	}
	c.cfg = tdnuca.DefaultExperimentConfig()
	c.cfg.Factor = tdnuca.WorkloadFactor(*factor)
	c.cfg.Seed = *seed
	c.cfg.Arch.CheckInvariants = *check
	if *mesh != "" {
		w, h, err := arch.ParseMesh(*mesh)
		if err != nil {
			return err
		}
		a := tdnuca.ScaledMeshConfig(w, h)
		a.NoCContention = c.cfg.Arch.NoCContention
		a.CheckInvariants = c.cfg.Arch.CheckInvariants
		if err := a.Validate(); err != nil {
			return err
		}
		c.cfg.Arch = a
	}

	var results []tdnuca.Result
	switch {
	case c.bench != "":
		results, err = c.runBench()
	case c.faults != "":
		results, err = c.runDegraded()
	default:
		results, err = c.runFigures()
	}
	if err != nil {
		return err
	}
	return reportViolations(stderr, results)
}

// runBench runs one workload: under one policy with every metric, traced
// when -trace is set, or under every policy as a comparison table.
func (c *cli) runBench() ([]tdnuca.Result, error) {
	bench := c.bench
	if tdnuca.IsGeneratedName(bench) {
		p, err := tdnuca.ParseWorkloadName(bench)
		if err != nil {
			return nil, err
		}
		bench = p.String() // digests hash the canonical name
	}
	kinds := benchPolicies
	if c.policy != "" || c.trace != "" {
		kind := tdnuca.TDNUCA
		if c.policy != "" {
			k, ok := harness.ParsePolicy(c.policy)
			if !ok {
				return nil, fmt.Errorf("unknown policy %q", c.policy)
			}
			kind = k
		}
		kinds = []tdnuca.PolicyKind{kind}
	}
	jobs := make([]tdnuca.ExperimentJob, len(kinds))
	for i, k := range kinds {
		jobs[i] = tdnuca.ExperimentJob{Bench: bench, Kind: k, Cfg: c.cfg}
	}
	if c.trace != "" {
		jobs[0].Trace = &tdnuca.TraceOptions{Interval: sim.Cycles(c.interval)}
	}
	results, err := tdnuca.RunExperiments(jobs, c.workers)
	if err != nil {
		return nil, err
	}
	switch {
	case c.trace != "":
		err = c.writeTrace(results[0])
	case c.policy != "":
		printReport(c.stdout, results[0])
	default:
		err = harness.VerifyAccessInvariance(results)
		c.printComparison(bench, results)
	}
	if err == nil && c.digest {
		suite := tdnuca.Suite{bench: {}}
		for _, r := range results {
			suite[bench][r.Policy] = r
		}
		fmt.Fprint(c.stdout, tdnuca.DigestSuite(suite).String())
	}
	return results, err
}

// printComparison prints one workload's runs side by side, normalized to
// the first (S-NUCA).
func (c *cli) printComparison(bench string, results []tdnuca.Result) {
	a := c.cfg.Arch
	tbl := tdnuca.Table{
		Title: fmt.Sprintf("%s: policy comparison (%dx%d mesh, factor %g, seed %d)",
			bench, a.MeshWidth, a.MeshHeight, float64(c.cfg.Factor), c.cfg.Seed),
		Header: []string{"Policy", "Cycles", "Speedup", "LLC hit", "NUCA dist", "Byte-hops", "DRAM xfers", "Digest"},
	}
	for _, r := range results {
		tbl.AddRow(string(r.Policy),
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.2fx", r.Speedup(results[0])),
			fmt.Sprintf("%.1f%%", 100*r.Metrics.LLCHitRatio()),
			fmt.Sprintf("%.2f", r.Metrics.NUCADistance()),
			fmt.Sprintf("%d", r.DataMovement),
			fmt.Sprintf("%d", r.DRAMTraffic()),
			fmt.Sprintf("%016x", r.Digest()))
	}
	fmt.Fprintln(c.stdout, tbl)
}

// printReport prints every metric of one run.
func printReport(w io.Writer, r tdnuca.Result) {
	m := r.Metrics
	fmt.Fprintf(w, "%s under %s\n", r.Benchmark, r.Policy)
	fmt.Fprintf(w, "  tasks               %d (avg %.0f KB of dependencies)\n", r.Tasks, r.AvgTaskKB)
	fmt.Fprintf(w, "  makespan            %d cycles\n", r.Cycles)
	fmt.Fprintf(w, "  accesses            %d (L1 hit %.1f%%)\n", m.Accesses,
		100*float64(m.L1Hits)/float64(m.L1Hits+m.L1Misses))
	fmt.Fprintf(w, "  LLC                 %d accesses, hit ratio %.1f%%\n", m.LLCAccesses, 100*m.LLCHitRatio())
	fmt.Fprintf(w, "  bypassed accesses   %d\n", m.BypassAccesses)
	fmt.Fprintf(w, "  DRAM                %d reads, %d writes\n", m.DRAMReads, m.DRAMWrites)
	fmt.Fprintf(w, "  NUCA distance       %.2f hops\n", m.NUCADistance())
	fmt.Fprintf(w, "  NoC data movement   %d byte-hops over %d messages\n", r.DataMovement, r.NoCMessages)
	fmt.Fprintf(w, "  energy              LLC %.1f uJ, NoC %.1f uJ, DRAM %.1f uJ, RRT %.1f uJ\n",
		r.Energy.LLC/1e3, r.Energy.NoC/1e3, r.Energy.DRAM/1e3, r.Energy.RRT/1e3)
	fmt.Fprintf(w, "  TLB                 %d hits, %d misses\n", r.TLBHits, r.TLBMisses)
	fmt.Fprintf(w, "  runtime overhead    creation %d cycles, hooks %d cycles\n", r.CreationCost, r.HookCost)
	switch r.Policy {
	case tdnuca.TDNUCA, tdnuca.TDBypassOnly, tdnuca.TDNoISA:
		s := r.ManagerStats
		fmt.Fprintf(w, "  TD-NUCA decisions   %d (bypass %d, local %d, cluster %d, reuse %d, untracked %d)\n",
			s.Decisions, s.Bypasses, s.LocalMappings, s.ClusterMappings, s.Reuses, s.Untracked)
		fmt.Fprintf(w, "  TD-NUCA ISA         %d registers, %d invalidates, %d flushes (%d transition)\n",
			s.Registers, s.Invalidates, s.Flushes, s.TransitionFlushes)
		fmt.Fprintf(w, "  RRT occupancy       avg %.2f, max %d entries (%d register failures)\n",
			r.RRTAvgOcc, r.RRTMaxOcc, r.RegisterFailures)
		cl := r.TDClassification
		fmt.Fprintf(w, "  classification      Out %d, In %d, Both %d, NotReused %d blocks\n",
			cl.Out, cl.In, cl.Both, cl.NotReused)
	case tdnuca.RNUCA:
		fmt.Fprintf(w, "  R-NUCA classes      private %d, shared-RO %d, shared %d blocks\n",
			r.RNUCAPrivate, r.RNUCASharedRO, r.RNUCAShared)
	}
	fmt.Fprintf(w, "  digest              %016x (access digest %016x)\n", r.Digest(), r.AccessDigest)
}

// runDegraded runs every benchmark under the core policies with the
// -faults scenario injected and prints the per-run fault accounting.
func (c *cli) runDegraded() ([]tdnuca.Result, error) {
	var sc *tdnuca.FaultScenario
	if strings.EqualFold(c.faults, "default") {
		sc = tdnuca.DefaultFaults(&c.cfg.Arch, c.faultSeed)
	} else {
		var err error
		if sc, err = tdnuca.ParseFaults(c.faults); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(c.stderr, "degraded run [%s]: %d benchmarks x %d policies on %d workers...\n",
		sc, len(tdnuca.Benchmarks()), len(corePolicies), c.workers)
	suite, err := tdnuca.RunSuite(tdnuca.ExperimentJob{Cfg: c.cfg, Faults: sc}, c.workers, corePolicies...)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.stdout, "Degraded suite under faults [%s]\n", sc)
	fmt.Fprintf(c.stdout, "%-12s %-22s %14s %6s %6s %5s %13s %18s\n",
		"benchmark", "policy", "cycles", "banks", "links", "rrt", "fault-cycles", "digest")
	d := tdnuca.DigestSuite(suite)
	var results []tdnuca.Result
	for _, e := range d.Entries {
		r := suite[e.Benchmark][e.Policy]
		f := r.Faults
		fmt.Fprintf(c.stdout, "%-12s %-22s %14d %6d %6d %5d %13d %016x\n",
			e.Benchmark, e.Policy, uint64(e.Cycles), f.BankRetirements, f.LinkFailures,
			f.RRTDegrades, uint64(f.FaultCycles), e.Digest)
		results = append(results, r)
	}
	if c.digest {
		fmt.Fprint(c.stdout, d.String())
	}
	return results, nil
}

// runFigures regenerates the tables and figures -fig/-all select, plus
// the figure suite's digest under -digest, as one batch that simulates
// each distinct run once. It returns every run of the batch.
func (c *cli) runFigures() ([]tdnuca.Result, error) {
	var figs []harness.Figure
	for _, f := range harness.Figures {
		if c.all || strings.EqualFold(c.fig, f.Name) {
			figs = append(figs, f)
		}
	}
	if c.fig != "" && len(figs) == 0 {
		return nil, fmt.Errorf("unknown figure %q", c.fig)
	}
	if c.digest {
		figs = append(figs, harness.DigestFigure)
	}
	start := time.Now()
	texts, jobs, results, err := harness.RunFigures(figs, c.cfg, c.faultSeed, c.workers)
	if err != nil {
		return nil, err
	}
	for _, text := range texts {
		fmt.Fprint(c.stdout, text)
	}
	fmt.Fprintf(c.stderr, "%d runs at factor %g on %d workers in %v\n",
		len(jobs), float64(c.cfg.Factor), c.workers, time.Since(start).Round(time.Millisecond))
	return results, nil
}

// reportViolations prints every coherence violation of the runs to w,
// in run order, and returns errViolations if there was any.
func reportViolations(w io.Writer, results []tdnuca.Result) error {
	n := 0
	for _, r := range results {
		for _, v := range r.Violations {
			fmt.Fprintf(w, "COHERENCE VIOLATION %s/%s: %s\n", r.Benchmark, r.Policy, v)
			n++
		}
	}
	if n > 0 {
		return fmt.Errorf("%w: %d", errViolations, n)
	}
	return nil
}

// Command tdnuca-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	tdnuca-experiments -all                # every table and figure
//	tdnuca-experiments -fig 8              # one figure (3, 8..15)
//	tdnuca-experiments -fig rrt            # Sec. V-E RRT latency sweep
//	tdnuca-experiments -fig occupancy      # Sec. V-E RRT occupancy
//	tdnuca-experiments -fig flush          # Sec. V-E flush overhead
//	tdnuca-experiments -fig rtoverhead     # Sec. V-E runtime overhead
//	tdnuca-experiments -factor 0.03125     # workload memory scale
//	tdnuca-experiments -check              # enable the coherence checker
//	tdnuca-experiments -all -workers 4     # cap the worker pool (0 = one per CPU)
//	tdnuca-experiments -digest             # print the suite's behavioral digest
//	tdnuca-experiments -fig cyclestack     # per-run cycle-stack decomposition
//	tdnuca-experiments -trace LU           # trace LU under TD-NUCA
//	tdnuca-experiments -trace LU:S-NUCA -trace-out lu.json -interval 5000
//	tdnuca-experiments -faults default     # degraded suite (seeded severity-3 faults)
//	tdnuca-experiments -faults bank=3@20000,link=1-2@50000,rrt=8@80000
//	tdnuca-experiments -fig resilience     # makespan/traffic vs fault severity
//	tdnuca-experiments -gen seed=3,depth=8,width=16   # generated workload
//	tdnuca-experiments -gen seed=3 -mesh 8x8          # ... on an 8x8 mesh
//
// -gen runs one seeded generator workload (internal/workgen) under
// S-NUCA, R-NUCA and TD-NUCA and prints a per-policy comparison; knobs
// not named keep their defaults, and the canonical "gen:..." name it
// prints is accepted anywhere a benchmark name is. -mesh swaps the 4x4
// machine for a generalized WxH mesh (scaled per-tile caches) and
// composes with every other mode.
//
// -faults runs every benchmark under S-NUCA, R-NUCA and TD-NUCA with the
// given fault scenario injected (DESIGN.md §11) and prints the per-run
// fault counters; "default" picks the seeded severity-3 ladder (one bank
// retired, one link dead, RRTs halved) from -fault-seed. With -digest the
// degraded suite's behavioral digest is printed instead of the healthy
// one. -fig resilience sweeps severities 0..3 and prints the makespan and
// NoC-traffic inflation of each policy relative to its healthy run.
//
// -trace runs one benchmark (optionally under a named policy, default
// TD-NUCA) with the event tracer attached, writes a Perfetto-loadable
// Chrome trace (-trace-out, default trace.json) plus <out>.intervals.csv
// and <out>.intervals.json time series, validates the output, and prints
// the run's cycle stack.
//
// Runs fan out across a worker pool (one worker per CPU by default);
// results are bit-for-bit identical to -workers 1 because every run owns
// an independent machine and runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"tdnuca"
	"tdnuca/internal/arch"
	"tdnuca/internal/profiling"
)

// prof is the active -cpuprofile/-memprofile session; exit routes every
// termination path through Stop so profiles are flushed before os.Exit.
var prof *profiling.Session

func stopProf() {
	if prof != nil {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "tdnuca-experiments:", err)
		}
		prof = nil
	}
}

func exit(code int) {
	stopProf()
	os.Exit(code)
}

func main() {
	var (
		fig     = flag.String("fig", "", "figure to regenerate: 3, 8..15, rrt, occupancy, flush, rtoverhead, ablation, clusters, resilience, table1, table2")
		all     = flag.Bool("all", false, "regenerate every table and figure")
		factor  = flag.Float64("factor", float64(tdnuca.DefaultWorkloadFactor), "workload memory factor (1.0 = Table II scale)")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		check   = flag.Bool("check", false, "enable the functional coherence checker (slower)")
		workers = flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU, 1 = sequential)")
		digest  = flag.Bool("digest", false, "print the suite's behavioral digest (for regression comparison)")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write an allocation profile to this file on exit")

		traceSpec = flag.String("trace", "", "trace one run: benchmark or benchmark:policy (default policy TD-NUCA)")
		traceOut  = flag.String("trace-out", "trace.json", "Chrome trace output path for -trace")
		interval  = flag.Uint64("interval", 0, "interval sample length in cycles for -trace (0 = default)")

		faultSpec = flag.String("faults", "", "run the suite degraded: a fault scenario like bank=3@20000,link=1-2@50000,rrt=8@80000, or 'default' for the seeded severity-3 ladder")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for generated fault scenarios (-faults default, -fig resilience)")

		genSpec = flag.String("gen", "", "run a generated workload under the core policies: knobs like seed=3,depth=8,width=16,fanout=4 (unset knobs keep defaults; schema in EXPERIMENTS.md)")
		mesh    = flag.String("mesh", "", "override the mesh topology, e.g. 8x8 or 16x16 (scaled per-tile caches, corner memory controllers)")
	)
	flag.Parse()

	var perr error
	prof, perr = profiling.Start(*cpuprof, *memprof)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-experiments:", perr)
		exit(1)
	}
	defer stopProf()

	cfg := tdnuca.DefaultExperimentConfig()
	cfg.Factor = tdnuca.WorkloadFactor(*factor)
	cfg.Seed = *seed
	cfg.Arch.CheckInvariants = *check

	if *mesh != "" {
		w, h, err := arch.ParseMesh(*mesh)
		fail(err)
		a := tdnuca.ScaledMeshConfig(w, h)
		a.NoCContention = cfg.Arch.NoCContention
		a.CheckInvariants = cfg.Arch.CheckInvariants
		cfg.Arch = a
		fail(cfg.Arch.Validate())
	}

	if *genSpec != "" {
		runGenerated(cfg, *genSpec, *workers, *digest)
		if !*all && *fig == "" && *traceSpec == "" && *faultSpec == "" {
			return
		}
	}

	if *traceSpec != "" {
		runTraced(cfg, *traceSpec, *traceOut, *interval)
		if !*all && *fig == "" && !*digest {
			return
		}
	}

	if *faultSpec != "" {
		runDegraded(cfg, *faultSpec, *faultSeed, *workers, *digest)
		if !*all && *fig == "" {
			return
		}
	}

	if !*all && *fig == "" && !*digest && *traceSpec == "" && *faultSpec == "" {
		flag.Usage()
		exit(2)
	}

	want := func(name string) bool { return *all || strings.EqualFold(*fig, name) }
	start := time.Now()

	if want("table1") {
		fmt.Println(tdnuca.TableI(cfg))
	}
	if want("table2") {
		tbl, err := tdnuca.TableII(cfg)
		fail(err)
		fmt.Println(tbl)
	}

	needSuite := *all || *digest
	for _, f := range []string{"3", "8", "9", "10", "11", "12", "13", "14", "15", "occupancy", "flush", "cyclestack"} {
		if strings.EqualFold(*fig, f) {
			needSuite = true
		}
	}
	var suite tdnuca.Suite
	if needSuite {
		kinds := []tdnuca.PolicyKind{tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA}
		if *all || want("15") {
			kinds = append(kinds, tdnuca.TDBypassOnly)
		}
		n := *workers
		if n <= 0 {
			n = tdnuca.ExperimentWorkers()
		}
		fmt.Fprintf(os.Stderr, "running %d benchmarks x %d policies at factor %g on %d workers...\n",
			len(tdnuca.Benchmarks()), len(kinds), *factor, n)
		var err error
		suite, err = tdnuca.RunSuite(tdnuca.ExperimentJob{Cfg: cfg}, *workers, kinds...)
		fail(err)
		reportViolations(suite)
		if *digest {
			fmt.Print(tdnuca.DigestSuite(suite).String())
		}
	}

	type figEntry struct {
		name string
		gen  func(tdnuca.Suite) tdnuca.Table
	}
	for _, fe := range []figEntry{
		{"3", tdnuca.Fig3}, {"8", tdnuca.Fig8}, {"9", tdnuca.Fig9},
		{"10", tdnuca.Fig10}, {"11", tdnuca.Fig11}, {"12", tdnuca.Fig12},
		{"13", tdnuca.Fig13}, {"14", tdnuca.Fig14}, {"15", tdnuca.Fig15},
		{"occupancy", tdnuca.OccupancyTable}, {"flush", tdnuca.FlushOverheadTable},
		{"cyclestack", tdnuca.CycleStackTable},
	} {
		if want(fe.name) {
			fmt.Println(fe.gen(suite))
		}
	}

	if want("rrt") {
		tbl, err := tdnuca.RRTLatencySweep(cfg, []int{0, 1, 2, 3, 4})
		fail(err)
		fmt.Println(tbl)
	}
	if want("rtoverhead") {
		tbl, err := tdnuca.RuntimeOverheadTable(cfg)
		fail(err)
		fmt.Println(tbl)
	}
	if want("ablation") {
		tbl, err := tdnuca.AblationTable(cfg)
		fail(err)
		fmt.Println(tbl)
	}
	if want("clusters") {
		tbl, err := tdnuca.ClusterSweep(cfg, [][2]int{{1, 1}, {2, 2}, {4, 4}})
		fail(err)
		fmt.Println(tbl)
	}
	if want("resilience") {
		rep, err := tdnuca.ResilienceSweep(cfg, *faultSeed, 3, *workers,
			tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA)
		fail(err)
		fmt.Println(rep)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// runGenerated executes one generator workload under the core policies
// on the worker pool and prints the per-policy comparison (plus the
// run digests with -digest). The access digest must agree across
// policies — verified here too, not only in the test suite.
func runGenerated(cfg tdnuca.ExperimentConfig, spec string, workers int, digest bool) {
	name := spec
	if !tdnuca.IsGeneratedName(name) {
		name = "gen:" + name
	}
	p, err := tdnuca.ParseWorkloadName(name)
	fail(err)
	name = p.String()
	kinds := []tdnuca.PolicyKind{tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA}
	jobs := make([]tdnuca.ExperimentJob, 0, len(kinds))
	for _, k := range kinds {
		jobs = append(jobs, tdnuca.ExperimentJob{Bench: name, Kind: k, Cfg: cfg})
	}
	fmt.Fprintf(os.Stderr, "generated workload %s on a %dx%d mesh...\n",
		name, cfg.Arch.MeshWidth, cfg.Arch.MeshHeight)
	results, err := tdnuca.RunExperiments(jobs, workers)
	fail(err)

	fmt.Printf("Generated workload %s\n", name)
	fmt.Printf("%-22s %14s %10s %12s %16s %16s\n",
		"policy", "cycles", "tasks", "dram-xfers", "access-digest", "digest")
	for i, r := range results {
		fmt.Printf("%-22s %14d %10d %12d %016x %016x\n",
			string(kinds[i]), uint64(r.Cycles), r.Tasks,
			r.Metrics.DRAMReads+r.Metrics.DRAMWrites, r.AccessDigest, r.Digest())
		for _, v := range r.Violations {
			fmt.Fprintf(os.Stderr, "COHERENCE VIOLATION %s/%s: %s\n", name, kinds[i], v)
		}
	}
	for _, r := range results[1:] {
		if r.AccessDigest != results[0].AccessDigest {
			fail(fmt.Errorf("access digest diverged across policies: %016x vs %016x",
				r.AccessDigest, results[0].AccessDigest))
		}
	}
	if digest {
		s := make(tdnuca.Suite)
		s[name] = map[tdnuca.PolicyKind]tdnuca.Result{}
		for i, r := range results {
			s[name][kinds[i]] = r
		}
		fmt.Print(tdnuca.DigestSuite(s).String())
	}
}

// runDegraded executes every benchmark under the core policies with the
// given fault scenario injected and prints the per-run fault accounting;
// with -digest, the degraded suite's behavioral digest follows.
func runDegraded(cfg tdnuca.ExperimentConfig, spec string, seed uint64, workers int, digest bool) {
	var sc *tdnuca.FaultScenario
	var err error
	if strings.EqualFold(spec, "default") {
		sc = tdnuca.DefaultFaults(&cfg.Arch, seed)
	} else {
		sc, err = tdnuca.ParseFaults(spec)
		fail(err)
	}
	kinds := []tdnuca.PolicyKind{tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA}
	n := workers
	if n <= 0 {
		n = tdnuca.ExperimentWorkers()
	}
	fmt.Fprintf(os.Stderr, "degraded run [%s]: %d benchmarks x %d policies on %d workers...\n",
		sc, len(tdnuca.Benchmarks()), len(kinds), n)
	suite, err := tdnuca.RunSuite(tdnuca.ExperimentJob{Cfg: cfg, Faults: sc}, workers, kinds...)
	fail(err)

	fmt.Printf("Degraded suite under faults [%s]\n", sc)
	fmt.Printf("%-12s %-22s %14s %6s %6s %5s %13s %18s\n",
		"benchmark", "policy", "cycles", "banks", "links", "rrt", "fault-cycles", "digest")
	benches := make([]string, 0, len(suite))
	for bench := range suite {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	for _, bench := range benches {
		perPolicy := suite[bench]
		names := make([]string, 0, len(perPolicy))
		for kind := range perPolicy {
			names = append(names, string(kind))
		}
		sort.Strings(names)
		for _, name := range names {
			r := perPolicy[tdnuca.PolicyKind(name)]
			f := r.Faults
			fmt.Printf("%-12s %-22s %14d %6d %6d %5d %13d %016x\n",
				bench, name, uint64(r.Cycles), f.BankRetirements, f.LinkFailures,
				f.RRTDegrades, uint64(f.FaultCycles), r.Digest())
			for _, v := range r.Violations {
				fmt.Fprintf(os.Stderr, "COHERENCE VIOLATION %s/%s: %s\n", bench, name, v)
			}
		}
	}
	if digest {
		fmt.Print(tdnuca.DigestSuite(suite).String())
	}
}

func reportViolations(s tdnuca.Suite) {
	benches := make([]string, 0, len(s))
	for bench := range s {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	for _, bench := range benches {
		perPolicy := s[bench]
		kinds := make([]string, 0, len(perPolicy))
		for kind := range perPolicy {
			kinds = append(kinds, string(kind))
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			for _, v := range perPolicy[tdnuca.PolicyKind(kind)].Violations {
				fmt.Fprintf(os.Stderr, "COHERENCE VIOLATION %s/%s: %s\n", bench, kind, v)
			}
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-experiments:", err)
		exit(1)
	}
}

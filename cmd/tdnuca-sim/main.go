// Command tdnuca-sim runs one benchmark under one NUCA policy and prints
// every metric the run produced. With -policy all it runs every policy
// in parallel (one simulation per worker) and prints a comparison table.
//
// Usage:
//
//	tdnuca-sim -bench LU -policy tdnuca
//	tdnuca-sim -bench MD5 -policy snuca -factor 0.03125 -check
//	tdnuca-sim -bench LU -policy all -workers 4
//	tdnuca-sim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"tdnuca"
	"tdnuca/internal/profiling"
)

// prof is the active -cpuprofile/-memprofile session; exit routes every
// termination path through Stop so profiles are flushed before os.Exit.
var prof *profiling.Session

func stopProf() {
	if prof != nil {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "tdnuca-sim:", err)
		}
		prof = nil
	}
}

func exit(code int) {
	stopProf()
	os.Exit(code)
}

var policies = map[string]tdnuca.PolicyKind{
	"snuca":         tdnuca.SNUCA,
	"rnuca":         tdnuca.RNUCA,
	"tdnuca":        tdnuca.TDNUCA,
	"tdnuca-bypass": tdnuca.TDBypassOnly,
	"tdnuca-noisa":  tdnuca.TDNoISA,
}

// allPolicyOrder is the comparison-table row order for -policy all.
var allPolicyOrder = []tdnuca.PolicyKind{
	tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA, tdnuca.TDBypassOnly, tdnuca.TDNoISA,
}

func main() {
	var (
		bench   = flag.String("bench", "LU", "benchmark name (see -list)")
		pol     = flag.String("policy", "tdnuca", "snuca | rnuca | tdnuca | tdnuca-bypass | tdnuca-noisa | all")
		factor  = flag.Float64("factor", float64(tdnuca.DefaultWorkloadFactor), "workload memory factor (1.0 = Table II)")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		check   = flag.Bool("check", false, "enable the functional coherence checker")
		workers = flag.Int("workers", 0, "parallel workers for -policy all (0 = one per CPU)")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	var perr error
	prof, perr = profiling.Start(*cpuprof, *memprof)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-sim:", perr)
		exit(1)
	}
	defer stopProf()

	if *list {
		fmt.Println(strings.Join(tdnuca.Benchmarks(), "\n"))
		return
	}
	cfg := tdnuca.DefaultExperimentConfig()
	cfg.Factor = tdnuca.WorkloadFactor(*factor)
	cfg.Seed = *seed
	cfg.Arch.CheckInvariants = *check

	if strings.EqualFold(*pol, "all") {
		comparePolicies(*bench, cfg, *workers)
		return
	}
	kind, ok := policies[strings.ToLower(*pol)]
	if !ok {
		fmt.Fprintf(os.Stderr, "tdnuca-sim: unknown policy %q\n", *pol)
		exit(2)
	}

	r, err := tdnuca.RunExperiment(context.Background(), tdnuca.ExperimentJob{Bench: *bench, Kind: kind, Cfg: cfg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-sim:", err)
		exit(1)
	}

	m := r.Metrics
	fmt.Printf("%s under %s\n", r.Benchmark, r.Policy)
	fmt.Printf("  tasks               %d (avg %.0f KB of dependencies)\n", r.Tasks, r.AvgTaskKB)
	fmt.Printf("  makespan            %d cycles\n", r.Cycles)
	fmt.Printf("  accesses            %d (L1 hit %.1f%%)\n", m.Accesses,
		100*float64(m.L1Hits)/float64(m.L1Hits+m.L1Misses))
	fmt.Printf("  LLC                 %d accesses, hit ratio %.1f%%\n", m.LLCAccesses, 100*m.LLCHitRatio())
	fmt.Printf("  bypassed accesses   %d\n", m.BypassAccesses)
	fmt.Printf("  DRAM                %d reads, %d writes\n", m.DRAMReads, m.DRAMWrites)
	fmt.Printf("  NUCA distance       %.2f hops\n", m.NUCADistance())
	fmt.Printf("  NoC data movement   %d byte-hops over %d messages\n", r.DataMovement, r.NoCMessages)
	fmt.Printf("  energy              LLC %.1f uJ, NoC %.1f uJ, DRAM %.1f uJ, RRT %.1f uJ\n",
		r.Energy.LLC/1e3, r.Energy.NoC/1e3, r.Energy.DRAM/1e3, r.Energy.RRT/1e3)
	fmt.Printf("  TLB                 %d hits, %d misses\n", r.TLBHits, r.TLBMisses)
	fmt.Printf("  runtime overhead    creation %d cycles, hooks %d cycles\n", r.CreationCost, r.HookCost)
	if kind == tdnuca.TDNUCA || kind == tdnuca.TDBypassOnly {
		s := r.ManagerStats
		fmt.Printf("  TD-NUCA decisions   %d (bypass %d, local %d, cluster %d, reuse %d, untracked %d)\n",
			s.Decisions, s.Bypasses, s.LocalMappings, s.ClusterMappings, s.Reuses, s.Untracked)
		fmt.Printf("  TD-NUCA ISA         %d registers, %d invalidates, %d flushes (%d transition)\n",
			s.Registers, s.Invalidates, s.Flushes, s.TransitionFlushes)
		fmt.Printf("  RRT occupancy       avg %.2f, max %d entries (%d register failures)\n",
			r.RRTAvgOcc, r.RRTMaxOcc, r.RegisterFailures)
		c := r.TDClassification
		fmt.Printf("  classification      Out %d, In %d, Both %d, NotReused %d blocks\n",
			c.Out, c.In, c.Both, c.NotReused)
	}
	if kind == tdnuca.RNUCA {
		fmt.Printf("  R-NUCA classes      private %d, shared-RO %d, shared %d blocks\n",
			r.RNUCAPrivate, r.RNUCASharedRO, r.RNUCAShared)
	}
	for _, v := range r.Violations {
		fmt.Printf("  COHERENCE VIOLATION %s\n", v)
	}
	if len(r.Violations) > 0 {
		exit(1)
	}
}

// comparePolicies runs one benchmark under every policy on the parallel
// harness and prints the head-to-head table, normalized to S-NUCA.
func comparePolicies(bench string, cfg tdnuca.ExperimentConfig, workers int) {
	jobs := make([]tdnuca.ExperimentJob, len(allPolicyOrder))
	for i, k := range allPolicyOrder {
		jobs[i] = tdnuca.ExperimentJob{Bench: bench, Kind: k, Cfg: cfg}
	}
	results, err := tdnuca.RunExperiments(jobs, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-sim:", err)
		exit(1)
	}
	base := results[0] // S-NUCA
	tbl := tdnuca.Table{
		Title: fmt.Sprintf("%s: policy comparison (factor %g, seed %d)",
			bench, float64(cfg.Factor), cfg.Seed),
		Header: []string{"Policy", "Cycles", "Speedup", "LLC hit", "NUCA dist", "Byte-hops", "Digest"},
	}
	violations := 0
	for i, r := range results {
		tbl.AddRow(string(allPolicyOrder[i]),
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.2fx", r.Speedup(base)),
			fmt.Sprintf("%.1f%%", 100*r.Metrics.LLCHitRatio()),
			fmt.Sprintf("%.2f", r.Metrics.NUCADistance()),
			fmt.Sprintf("%d", r.DataMovement),
			fmt.Sprintf("%016x", r.Digest()))
		for _, v := range r.Violations {
			fmt.Fprintf(os.Stderr, "COHERENCE VIOLATION %s: %s\n", allPolicyOrder[i], v)
			violations++
		}
	}
	fmt.Println(tbl)
	if violations > 0 {
		exit(1)
	}
}

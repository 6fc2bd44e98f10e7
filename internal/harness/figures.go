package harness

import (
	"fmt"
	"reflect"
	"slices"

	"tdnuca/internal/stats"
	"tdnuca/internal/workloads"
)

// Figure is one table or figure of the evaluation. Plan lists the jobs
// it needs at cfg (faultSeed seeds the resilience study's scenarios)
// and returns a function that renders it, as the text the command
// prints, from their results in job order.
type Figure struct {
	Name string
	Plan func(cfg Config, faultSeed uint64) ([]Job, func([]Result) string, error)
}

// coreKinds are the policies of the figure suite: every suite figure
// but Fig. 15 and the cycle stacks reads only these.
var coreKinds = []PolicyKind{SNUCA, RNUCA, TDNUCA}

// Figures is every table and figure of the evaluation, in the order
// tdnuca-experiments -all prints them.
var Figures = []Figure{
	{"table1", func(cfg Config, _ uint64) ([]Job, func([]Result) string, error) {
		return nil, func([]Result) string { return TableI(cfg).String() + "\n" }, nil
	}},
	{"table2", tableII},
	{"3", suitePlan(table(Fig3), coreKinds...)},
	{"8", suitePlan(table(Fig8), coreKinds...)},
	{"9", suitePlan(table(Fig9), coreKinds...)},
	{"10", suitePlan(table(Fig10), coreKinds...)},
	{"11", suitePlan(table(Fig11), coreKinds...)},
	{"12", suitePlan(table(Fig12), coreKinds...)},
	{"13", suitePlan(table(Fig13), coreKinds...)},
	{"14", suitePlan(table(Fig14), coreKinds...)},
	{"15", suitePlan(table(Fig15), SNUCA, TDNUCA, TDBypassOnly)},
	{"occupancy", suitePlan(table(OccupancyTable), coreKinds...)},
	{"flush", suitePlan(table(FlushOverheadTable), coreKinds...)},
	{"cyclestack", suitePlan(table(CycleStackTable), SNUCA, RNUCA, TDNUCA, TDBypassOnly)},
	{"rrt", rrtLatencySweep},
	{"rtoverhead", runtimeOverheadTable},
	{"ablation", ablationTable},
	{"clusters", clusterSweep},
	{"resilience", resilienceSweep},
}

// DigestFigure renders the DigestSuite of the figure suite's S-NUCA,
// R-NUCA and TD-NUCA runs: the behavioral fingerprint -digest prints
// after the figures.
var DigestFigure = Figure{"digest", suitePlan(func(s Suite) string { return DigestSuite(s).String() }, coreKinds...)}

// suitePlan plans a figure drawn from the figure suite: every Table II
// benchmark under kinds at the run's configuration.
func suitePlan(draw func(Suite) string, kinds ...PolicyKind) func(Config, uint64) ([]Job, func([]Result) string, error) {
	return func(cfg Config, _ uint64) ([]Job, func([]Result) string, error) {
		jobs := suiteJobs(Job{Cfg: cfg}, kinds...)
		return jobs, func(results []Result) string { return draw(assembleSuite(jobs, results)) }, nil
	}
}

// table renders a table generator's output as the command prints it.
func table(gen func(Suite) stats.Table) func(Suite) string {
	return func(s Suite) string { return gen(s).String() + "\n" }
}

// RunFigures runs figs as one batch: it concatenates their plans' jobs,
// simulates each distinct job once in a single RunMany call (workers as
// there), and renders every figure from its own jobs' results. It
// returns the renderings in figs order, and the batch's distinct jobs
// with their results. Jobs are the same run when reflect.DeepEqual, so
// a func field set in cfg.RT (never equal) only stops the sharing.
func RunFigures(figs []Figure, cfg Config, faultSeed uint64, workers int) ([]string, []Job, []Result, error) {
	var batch []Job
	byRun := map[string][]int{} // bench/kind -> batch indices
	picks := make([][]int, len(figs))
	renders := make([]func([]Result) string, len(figs))
	for fi, f := range figs {
		jobs, render, err := f.Plan(cfg, faultSeed)
		if err != nil {
			return nil, nil, nil, err
		}
		renders[fi] = render
		for _, j := range jobs {
			key := j.Bench + "/" + string(j.Kind)
			k := slices.IndexFunc(byRun[key], func(i int) bool { return reflect.DeepEqual(batch[i], j) })
			if k < 0 {
				k = len(byRun[key])
				byRun[key] = append(byRun[key], len(batch))
				batch = append(batch, j)
			}
			picks[fi] = append(picks[fi], byRun[key][k])
		}
	}
	results, err := RunMany(batch, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	texts := make([]string, len(figs))
	for fi, render := range renders {
		mine := make([]Result, len(picks[fi]))
		for k, i := range picks[fi] {
			mine[k] = results[i]
		}
		texts[fi] = render(mine)
	}
	return texts, batch, results, nil
}

// TableI renders the simulator configuration (Table I) for a Config.
func TableI(cfg Config) stats.Table {
	a := cfg.Arch
	t := stats.Table{Title: "Table I: simulator configuration", Header: []string{"Component", "Configuration"}}
	t.AddRow("Cores", fmt.Sprintf("%d cores, %dx%d mesh", a.NumCores, a.MeshWidth, a.MeshHeight))
	t.AddRow("L1 cache", fmt.Sprintf("%dKB, %d-way, %dB/line, %d cycles", a.L1Bytes>>10, a.L1Ways, a.BlockBytes, a.L1Latency))
	t.AddRow("ITLB/DTLB", fmt.Sprintf("%d entries fully-associative, %d cycle(s)", a.TLBEntries, a.TLBLatency))
	t.AddRow("LLC", fmt.Sprintf("inclusive shared %dMB, banked %dKB/core, %d-way, %d cycles, pseudoLRU",
		a.LLCTotalBytes()>>20, a.LLCBankBytes>>10, a.LLCWays, a.LLCLatency))
	t.AddRow("Coherence", "directory MESI, silent evictions")
	t.AddRow("Directory", fmt.Sprintf("%dK entries total, banked %dK/core, %d-way",
		a.DirEntriesPerBank*a.NumCores>>10, a.DirEntriesPerBank>>10, a.DirWays))
	t.AddRow("NoC", fmt.Sprintf("%dx%d mesh, link %d cycle(s), router %d cycle(s)", a.MeshWidth, a.MeshHeight, a.LinkLatency, a.RouterLatency))
	t.AddRow("DRAM", fmt.Sprintf("%d cycles, controllers at tiles %v", a.DRAMLatency, a.MemCtrlTiles))
	t.AddRow("RRT", fmt.Sprintf("%d entries/core, %d cycle(s) access time", a.RRTEntries, a.RRTLatency))
	return t
}

// tableII plans Table II: every benchmark once, under S-NUCA, reporting
// the scaled problem geometry: input size, task count and average task
// size.
func tableII(cfg Config, _ uint64) ([]Job, func([]Result) string, error) {
	return suiteJobs(Job{Cfg: cfg}, SNUCA), func(results []Result) string {
		t := stats.Table{
			Title:  fmt.Sprintf("Table II: benchmarks at memory factor %.4f", float64(cfg.Factor)),
			Header: []string{"Bench", "Problem set", "Input (MB)", "Tasks", "Avg task (KB)"},
		}
		for i, spec := range workloads.All(cfg.Factor) {
			r := results[i]
			t.AddRow(spec.Name, spec.Problem,
				fmt.Sprintf("%.2f", float64(spec.InputBytes)/(1<<20)),
				fmt.Sprintf("%d", r.Tasks),
				fmt.Sprintf("%.0f", r.AvgTaskKB))
		}
		return t.String() + "\n"
	}, nil
}

// Fig3 reports the classification coverage of R-NUCA versus TD-NUCA:
// percentages of unique cache blocks per class, relative to each
// benchmark's footprint. Requires RNUCA and TDNUCA results in the suite.
func Fig3(s Suite) stats.Table {
	t := stats.Table{
		Title: "Fig. 3: block classification, R-NUCA vs TD-NUCA (% of unique blocks)",
		Header: []string{"Bench", "R:private", "R:sh-RO", "R:shared",
			"TD:Out", "TD:In", "TD:Both", "TD:NotReused", "TD:untracked"},
	}
	var rShared, tdNR, tdCov []float64
	for _, b := range PaperBenchOrder {
		r := s[b][RNUCA]
		td := s[b][TDNUCA]
		fb := float64(td.FootprintBlocks)
		pct := func(v uint64) string { return stats.Pct(float64(v) / fb) }
		c := td.TDClassification
		untracked := int64(td.FootprintBlocks) - int64(c.DepBlocks())
		if untracked < 0 {
			untracked = 0
		}
		t.AddRow(b,
			pct(r.RNUCAPrivate), pct(r.RNUCASharedRO), pct(r.RNUCAShared),
			pct(c.Out), pct(c.In), pct(c.Both), pct(c.NotReused), pct(uint64(untracked)))
		rShared = append(rShared, float64(r.RNUCAShared)/fb)
		tdNR = append(tdNR, float64(c.NotReused)/fb)
		tdCov = append(tdCov, float64(c.DepBlocks())/fb)
	}
	t.AddRow("average",
		"-", "-", stats.Pct(stats.Mean(rShared)),
		"-", "-", "-", stats.Pct(stats.Mean(tdNR)), "-")
	t.AddRow("paper avg", "-", "<1%", stats.Pct(Fig3PaperRShared),
		"-", "-", "-", stats.Pct(Fig3PaperTDNotReused),
		stats.Pct(1-Fig3PaperTDDepCoverage))
	return t
}

// normTable builds the common "per-benchmark ratio vs S-NUCA" table used
// by Figs. 9 and 12-14.
func normTable(s Suite, title string, metric func(Result) float64,
	paperTD map[string]float64, paperTDAvg, paperRAvg float64) stats.Table {
	t := stats.Table{Title: title, Header: []string{"Bench", "R-NUCA", "TD-NUCA", "paper TD"}}
	var rs, tds []float64
	for _, b := range PaperBenchOrder {
		base := metric(s[b][SNUCA])
		r := metric(s[b][RNUCA]) / base
		td := metric(s[b][TDNUCA]) / base
		rs = append(rs, r)
		tds = append(tds, td)
		t.AddRow(b, stats.Ratio(r), stats.Ratio(td), stats.Ratio(paperTD[b]))
	}
	// Arithmetic mean: a fully-bypassed benchmark can reach a ratio of 0,
	// which the geometric mean cannot aggregate.
	t.AddRow("average", stats.Ratio(stats.Mean(rs)), stats.Ratio(stats.Mean(tds)), stats.Ratio(paperTDAvg))
	t.AddRow("paper avg", stats.Ratio(paperRAvg), stats.Ratio(paperTDAvg), "")
	return t
}

// Fig8 reports the speedup of R-NUCA and TD-NUCA over S-NUCA.
func Fig8(s Suite) stats.Table {
	t := stats.Table{
		Title:  "Fig. 8: performance speedup normalized to S-NUCA",
		Header: []string{"Bench", "R-NUCA", "TD-NUCA", "paper R", "paper TD"},
	}
	var rs, tds []float64
	for _, b := range PaperBenchOrder {
		base := s[b][SNUCA]
		r := s[b][RNUCA].Speedup(base)
		td := s[b][TDNUCA].Speedup(base)
		rs = append(rs, r)
		tds = append(tds, td)
		t.AddRow(b, stats.Ratio(r), stats.Ratio(td),
			stats.Ratio(Fig8PaperR[b]), stats.Ratio(Fig8PaperTD[b]))
	}
	t.AddRow("average", stats.Ratio(stats.GeoMean(rs)), stats.Ratio(stats.GeoMean(tds)),
		stats.Ratio(Fig8PaperRAvg), stats.Ratio(Fig8PaperTDAvg))
	return t
}

// Fig9 reports LLC accesses normalized to S-NUCA.
func Fig9(s Suite) stats.Table {
	return normTable(s, "Fig. 9: LLC accesses normalized to S-NUCA",
		func(r Result) float64 { return float64(r.Metrics.LLCAccesses) },
		Fig9PaperTD, Fig9PaperTDAvg, Fig9PaperRAvg)
}

// Fig10 reports the raw LLC hit ratio of each policy.
func Fig10(s Suite) stats.Table {
	t := stats.Table{
		Title:  "Fig. 10: LLC hit ratio",
		Header: []string{"Bench", "S-NUCA", "R-NUCA", "TD-NUCA"},
	}
	var ss, rs, tds []float64
	for _, b := range PaperBenchOrder {
		sv := s[b][SNUCA].Metrics.LLCHitRatio()
		rv := s[b][RNUCA].Metrics.LLCHitRatio()
		tv := s[b][TDNUCA].Metrics.LLCHitRatio()
		ss, rs, tds = append(ss, sv), append(rs, rv), append(tds, tv)
		t.AddRow(b, stats.Pct(sv), stats.Pct(rv), stats.Pct(tv))
	}
	t.AddRow("average", stats.Pct(stats.Mean(ss)), stats.Pct(stats.Mean(rs)), stats.Pct(stats.Mean(tds)))
	t.AddRow("paper avg", stats.Pct(Fig10PaperS), stats.Pct(Fig10PaperR), stats.Pct(Fig10PaperTD))
	return t
}

// Fig11 reports the average NUCA distance (hops to the serving bank;
// bypassed accesses excluded, matching the paper).
func Fig11(s Suite) stats.Table {
	t := stats.Table{
		Title:  "Fig. 11: average NUCA distance",
		Header: []string{"Bench", "S-NUCA", "R-NUCA", "TD-NUCA"},
	}
	var ss, rs, tds []float64
	for _, b := range PaperBenchOrder {
		sv := s[b][SNUCA].Metrics.NUCADistance()
		rv := s[b][RNUCA].Metrics.NUCADistance()
		tv := s[b][TDNUCA].Metrics.NUCADistance()
		ss, rs, tds = append(ss, sv), append(rs, rv), append(tds, tv)
		t.AddRow(b, stats.F2(sv), stats.F2(rv), stats.F2(tv))
	}
	t.AddRow("average", stats.F2(stats.Mean(ss)), stats.F2(stats.Mean(rs)), stats.F2(stats.Mean(tds)))
	t.AddRow("paper avg", stats.F2(Fig11PaperS), stats.F2(Fig11PaperR), stats.F2(Fig11PaperTD))
	return t
}

// Fig12 reports NoC data movement (bytes x hops) normalized to S-NUCA.
func Fig12(s Suite) stats.Table {
	return normTable(s, "Fig. 12: data movement in the NoC normalized to S-NUCA",
		func(r Result) float64 { return float64(r.DataMovement) },
		Fig12PaperTD, Fig12PaperTDAvg, Fig12PaperRAvg)
}

// Fig13 reports LLC dynamic energy normalized to S-NUCA.
func Fig13(s Suite) stats.Table {
	return normTable(s, "Fig. 13: LLC dynamic energy normalized to S-NUCA",
		func(r Result) float64 { return r.Energy.LLC },
		Fig13PaperTD, Fig13PaperTDAvg, Fig13PaperRAvg)
}

// Fig14 reports NoC dynamic energy normalized to S-NUCA.
func Fig14(s Suite) stats.Table {
	return normTable(s, "Fig. 14: NoC dynamic energy normalized to S-NUCA",
		func(r Result) float64 { return r.Energy.NoC },
		Fig14PaperTD, Fig14PaperTDAvg, Fig14PaperRAvg)
}

// Fig15 compares the Bypass-Only variant against the full design.
// Requires SNUCA, TDBypassOnly and TDNUCA results.
func Fig15(s Suite) stats.Table {
	t := stats.Table{
		Title:  "Fig. 15: speedup of TD-NUCA (Bypass Only) vs full TD-NUCA, normalized to S-NUCA",
		Header: []string{"Bench", "Bypass Only", "Full TD-NUCA", "paper BO", "paper TD"},
	}
	var bos, tds []float64
	for _, b := range PaperBenchOrder {
		base := s[b][SNUCA]
		bo := s[b][TDBypassOnly].Speedup(base)
		td := s[b][TDNUCA].Speedup(base)
		bos, tds = append(bos, bo), append(tds, td)
		t.AddRow(b, stats.Ratio(bo), stats.Ratio(td),
			stats.Ratio(Fig15Paper[b]), stats.Ratio(Fig8PaperTD[b]))
	}
	t.AddRow("average", stats.Ratio(stats.GeoMean(bos)), stats.Ratio(stats.GeoMean(tds)),
		stats.Ratio(Fig15PaperAvg), stats.Ratio(Fig8PaperTDAvg))
	return t
}

// rrtLatencies are the RRT access times, in cycles, of the Sec. V-E
// latency study; the first, 0, is its baseline.
var rrtLatencies = []int{0, 1, 2, 3, 4}

// rrtLatencySweep plans the Sec. V-E study: TD-NUCA at each of
// rrtLatencies, reporting the average slowdown versus the ideal
// zero-latency RRT.
func rrtLatencySweep(cfg Config, _ uint64) ([]Job, func([]Result) string, error) {
	var jobs []Job // one benchmark set per latency, the 0-cycle baselines first
	for _, lat := range rrtLatencies {
		cfgL := cfg
		cfgL.Arch.RRTLatency = lat
		jobs = append(jobs, suiteJobs(Job{Cfg: cfgL}, TDNUCA)...)
	}
	return jobs, func(results []Result) string {
		t := stats.Table{
			Title:  "Sec. V-E: performance overhead of RRT latency (vs 0-cycle RRT)",
			Header: []string{"RRT latency", "avg slowdown", "paper"},
		}
		t.AddRow("0 cycles", "0.00%", stats.Pct(PaperRRTLatencyOverhead[0]))
		n := len(PaperBenchOrder)
		for li := 1; li < len(rrtLatencies); li++ {
			var slows []float64
			for bi := range PaperBenchOrder {
				slows = append(slows, float64(results[li*n+bi].Cycles)/float64(results[bi].Cycles)-1)
			}
			lat := rrtLatencies[li]
			t.AddRow(fmt.Sprintf("%d cycles", lat),
				fmt.Sprintf("%.2f%%", 100*stats.Mean(slows)), stats.Pct(PaperRRTLatencyOverhead[lat]))
		}
		return t.String() + "\n"
	}, nil
}

// OccupancyTable reports RRT occupancy per benchmark (Sec. V-E).
func OccupancyTable(s Suite) stats.Table {
	t := stats.Table{
		Title:  "Sec. V-E: RRT occupancy (64-entry RRTs)",
		Header: []string{"Bench", "avg entries", "max entries", "register failures"},
	}
	var avgs []float64
	maxAll := 0
	for _, b := range PaperBenchOrder {
		r := s[b][TDNUCA]
		avgs = append(avgs, r.RRTAvgOcc)
		if r.RRTMaxOcc > maxAll {
			maxAll = r.RRTMaxOcc
		}
		t.AddRow(b, stats.F2(r.RRTAvgOcc), fmt.Sprintf("%d", r.RRTMaxOcc),
			fmt.Sprintf("%d", r.RegisterFailures))
	}
	t.AddRow("overall", stats.F2(stats.Mean(avgs)), fmt.Sprintf("%d", maxAll), "")
	t.AddRow("paper", stats.F2(PaperRRTAvgOccupancy), fmt.Sprintf("%d", PaperRRTMaxOccupancy), "0")
	return t
}

// FlushOverheadTable reports the fraction of execution time spent in
// cache flushes under TD-NUCA (Sec. V-E): flush cycles over the run's
// aggregate core-cycles (its cycle stack total, NumCores x makespan).
func FlushOverheadTable(s Suite) stats.Table {
	t := stats.Table{
		Title:  "Sec. V-E: time spent flushing under TD-NUCA",
		Header: []string{"Bench", "flush time", "flushed blocks"},
	}
	for _, b := range PaperBenchOrder {
		r := s[b][TDNUCA]
		frac := float64(r.Metrics.FlushCycles) / float64(r.Stack.Total())
		t.AddRow(b, stats.Pct(frac), fmt.Sprintf("%d", r.Metrics.FlushedBlocks))
	}
	t.AddRow("paper", "<0.1% (Histo 0.49%)", "")
	return t
}

// runtimeOverheadTable plans the Sec. V-E runtime-extension overhead
// study: the TD-NUCA runtime bookkeeping without ISA execution,
// compared against plain S-NUCA.
func runtimeOverheadTable(cfg Config, _ uint64) ([]Job, func([]Result) string, error) {
	return suiteJobs(Job{Cfg: cfg}, SNUCA, TDNoISA), func(results []Result) string {
		t := stats.Table{
			Title:  "Sec. V-E: runtime-system extension overhead (no ISA, vs S-NUCA)",
			Header: []string{"Bench", "overhead", "paper"},
		}
		var all []float64
		for i, b := range PaperBenchOrder {
			base, no := results[2*i], results[2*i+1]
			ov := float64(no.Cycles)/float64(base.Cycles) - 1
			all = append(all, ov)
			t.AddRow(b, fmt.Sprintf("%.3f%%", 100*ov), "<0.03%")
		}
		t.AddRow("average", fmt.Sprintf("%.3f%%", 100*stats.Mean(all)), "0.01%")
		return t.String() + "\n"
	}, nil
}

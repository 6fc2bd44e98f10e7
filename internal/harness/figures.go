package harness

import (
	"fmt"

	"tdnuca/internal/stats"
	"tdnuca/internal/workloads"
)

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

// TableII runs every benchmark once (under S-NUCA, workers as in
// RunMany) and reports the scaled problem geometry: input size, task
// count and average task size.
func TableII(cfg Config, workers int) (stats.Table, error) {
	t := stats.Table{
		Title:  fmt.Sprintf("Table II: benchmarks at memory factor %.4f", float64(cfg.Factor)),
		Header: []string{"Bench", "Problem set", "Input (MB)", "Tasks", "Avg task (KB)"},
	}
	var jobs []Job
	for _, name := range workloads.Names() {
		jobs = append(jobs, Job{Bench: name, Kind: SNUCA, Cfg: cfg})
	}
	results, err := RunMany(jobs, workers)
	if err != nil {
		return t, err
	}
	for i, spec := range workloads.All(cfg.Factor) {
		r := results[i]
		t.AddRow(spec.Name, spec.Problem,
			fmt.Sprintf("%.2f", float64(spec.InputBytes)/(1<<20)),
			fmt.Sprintf("%d", r.Tasks),
			fmt.Sprintf("%.0f", r.AvgTaskKB))
	}
	return t, nil
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

// RRTLatencySweep reproduces the Sec. V-E study: TD-NUCA with RRT
// latencies 0-4 cycles, reporting the average slowdown versus the ideal
// zero-latency RRT (workers as in RunMany).
func RRTLatencySweep(cfg Config, latencies []int, workers int) (stats.Table, error) {
	t := stats.Table{
		Title:  "Sec. V-E: performance overhead of RRT latency (vs 0-cycle RRT)",
		Header: []string{"RRT latency", "avg slowdown", "paper"},
	}
	// One flat batch: the zero-latency baselines first, then every
	// non-zero latency's full benchmark set.
	cfg0 := cfg
	cfg0.Arch.RRTLatency = 0
	var jobs []Job
	for _, b := range PaperBenchOrder {
		jobs = append(jobs, Job{Bench: b, Kind: TDNUCA, Cfg: cfg0})
	}
	var swept []int
	for _, lat := range latencies {
		if lat == 0 {
			continue
		}
		cfgL := cfg
		cfgL.Arch.RRTLatency = lat
		swept = append(swept, lat)
		for _, b := range PaperBenchOrder {
			jobs = append(jobs, Job{Bench: b, Kind: TDNUCA, Cfg: cfgL})
		}
	}
	results, err := RunMany(jobs, workers)
	if err != nil {
		return t, err
	}
	baselines := results[:len(PaperBenchOrder)]
	byLat := map[int][]Result{}
	for i, lat := range swept {
		start := (i + 1) * len(PaperBenchOrder)
		byLat[lat] = results[start : start+len(PaperBenchOrder)]
	}
	for _, lat := range latencies {
		if lat == 0 {
			t.AddRow("0 cycles", "0.00%", stats.Pct(PaperRRTLatencyOverhead[0]))
			continue
		}
		var slows []float64
		for bi := range PaperBenchOrder {
			slows = append(slows, float64(byLat[lat][bi].Cycles)/float64(baselines[bi].Cycles)-1)
		}
		paper := ""
		if p, ok := PaperRRTLatencyOverhead[lat]; ok {
			paper = stats.Pct(p)
		}
		t.AddRow(fmt.Sprintf("%d cycles", lat),
			fmt.Sprintf("%.2f%%", 100*stats.Mean(slows)), paper)
	}
	return t, nil
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

// RuntimeOverheadTable reproduces the Sec. V-E runtime-extension
// overhead study: the TD-NUCA runtime bookkeeping without ISA execution,
// compared against plain S-NUCA (workers as in RunMany).
func RuntimeOverheadTable(cfg Config, workers int) (stats.Table, error) {
	t := stats.Table{
		Title:  "Sec. V-E: runtime-system extension overhead (no ISA, vs S-NUCA)",
		Header: []string{"Bench", "overhead", "paper"},
	}
	var jobs []Job
	for _, b := range PaperBenchOrder {
		jobs = append(jobs,
			Job{Bench: b, Kind: SNUCA, Cfg: cfg},
			Job{Bench: b, Kind: TDNoISA, Cfg: cfg})
	}
	results, err := RunMany(jobs, workers)
	if err != nil {
		return t, err
	}
	var all []float64
	for i, b := range PaperBenchOrder {
		base, no := results[2*i], results[2*i+1]
		ov := float64(no.Cycles)/float64(base.Cycles) - 1
		all = append(all, ov)
		t.AddRow(b, fmt.Sprintf("%.3f%%", 100*ov), "<0.03%")
	}
	t.AddRow("average", fmt.Sprintf("%.3f%%", 100*stats.Mean(all)), "0.01%")
	return t, nil
}

package harness

import (
	"fmt"

	"tdnuca/internal/stats"
)

// ablationVariant is one row of the design-choice ablation.
type ablationVariant struct {
	name   string
	mutate func(*Config)
}

// AblationTable quantifies the design choices DESIGN.md §6 documents:
// the deferred task-end flush, the data-affinity scheduler, and the
// per-dependency decision cost. Each variant reruns the full suite and
// reports the TD-NUCA speedup against an S-NUCA baseline that shares
// every knob except the TD-specific ones, so scheduler effects cancel
// (workers as in RunMany).
func AblationTable(cfg Config, workers int) (stats.Table, error) {
	t := stats.Table{
		Title:  "Ablation: TD-NUCA design choices (speedup vs matching S-NUCA)",
		Header: []string{"Variant", "avg", "Gauss", "LU", "MD5"},
	}
	variants := []ablationVariant{
		{"full design (deferred flush + affinity)", func(*Config) {}},
		{"eager task-end flush (paper-literal)", func(c *Config) { c.EagerFlush = true }},
		{"no affinity scheduling", func(c *Config) { c.RT.DisableAffinity = true }},
		{"eager flush + no affinity", func(c *Config) { c.EagerFlush = true; c.RT.DisableAffinity = true }},
		{"no NoC contention", func(c *Config) { c.Arch.NoCContention = false }},
	}
	// Every variant's S-NUCA baseline and TD-NUCA run in one flat batch.
	var jobs []Job
	for _, v := range variants {
		cfgV := cfg
		v.mutate(&cfgV)
		for _, b := range PaperBenchOrder {
			jobs = append(jobs,
				Job{Bench: b, Kind: SNUCA, Cfg: cfgV},
				Job{Bench: b, Kind: TDNUCA, Cfg: cfgV})
		}
	}
	results, err := RunMany(jobs, workers)
	if err != nil {
		return t, err
	}
	perVariant := 2 * len(PaperBenchOrder)
	for vi, v := range variants {
		var speedups []float64
		perBench := map[string]float64{}
		for bi, b := range PaperBenchOrder {
			s := results[vi*perVariant+2*bi]
			td := results[vi*perVariant+2*bi+1]
			sp := td.Speedup(s)
			speedups = append(speedups, sp)
			perBench[b] = sp
		}
		t.AddRow(v.name,
			stats.Ratio(stats.GeoMean(speedups)),
			stats.Ratio(perBench["Gauss"]),
			stats.Ratio(perBench["LU"]),
			stats.Ratio(perBench["MD5"]))
	}
	return t, nil
}

// ClusterSweep varies the LLC replication cluster geometry: 1x1 clusters
// give every core its own replica (maximum replication, 16 copies), the
// default 2x2 quadrants match the paper, and a 4x4 cluster is the whole
// chip (a single copy — replication disabled). Reported per benchmark as
// TD-NUCA speedup over the (cluster-independent) S-NUCA baseline
// (workers as in RunMany).
func ClusterSweep(cfg Config, dims [][2]int, workers int) (stats.Table, error) {
	t := stats.Table{
		Title:  "Ablation: LLC replication cluster size (TD-NUCA speedup vs S-NUCA)",
		Header: []string{"Bench"},
	}
	for _, d := range dims {
		t.Header = append(t.Header, fmt.Sprintf("%dx%d", d[0], d[1]))
	}
	// The cluster-independent S-NUCA baselines followed by each
	// geometry's TD-NUCA runs, as one batch.
	jobs := make([]Job, 0, (1+len(dims))*len(PaperBenchOrder))
	for _, b := range PaperBenchOrder {
		jobs = append(jobs, Job{Bench: b, Kind: SNUCA, Cfg: cfg})
	}
	for _, d := range dims {
		c := cfg
		c.Arch.ClusterWidth, c.Arch.ClusterHeight = d[0], d[1]
		if err := c.Arch.Validate(); err != nil {
			return t, fmt.Errorf("cluster %dx%d: %w", d[0], d[1], err)
		}
		for _, b := range PaperBenchOrder {
			jobs = append(jobs, Job{Bench: b, Kind: TDNUCA, Cfg: c})
		}
	}
	results, err := RunMany(jobs, workers)
	if err != nil {
		return t, err
	}
	bases := results[:len(PaperBenchOrder)]
	cells := map[string][]string{}
	sums := make([]float64, len(dims))
	for di := range dims {
		batch := results[(1+di)*len(PaperBenchOrder) : (2+di)*len(PaperBenchOrder)]
		for bi, b := range PaperBenchOrder {
			sp := batch[bi].Speedup(bases[bi])
			cells[b] = append(cells[b], stats.Ratio(sp))
			sums[di] += sp
		}
	}
	for _, b := range PaperBenchOrder {
		t.AddRow(append([]string{b}, cells[b]...)...)
	}
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, stats.Ratio(s/float64(len(PaperBenchOrder))))
	}
	t.AddRow(avg...)
	return t, nil
}

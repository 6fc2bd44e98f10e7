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

// ablationTable plans the ablation of the design choices DESIGN.md §6
// documents: the deferred task-end flush, the data-affinity scheduler,
// and the per-dependency decision cost. Each variant reruns the full
// suite and reports the TD-NUCA speedup against an S-NUCA baseline that
// shares every knob except the TD-specific ones, so scheduler effects
// cancel.
func ablationTable(cfg Config, _ uint64) ([]Job, func([]Result) string, error) {
	variants := []ablationVariant{
		{"full design (deferred flush + affinity)", func(*Config) {}},
		{"eager task-end flush (paper-literal)", func(c *Config) { c.EagerFlush = true }},
		{"no affinity scheduling", func(c *Config) { c.RT.DisableAffinity = true }},
		{"eager flush + no affinity", func(c *Config) { c.EagerFlush = true; c.RT.DisableAffinity = true }},
		{"no NoC contention", func(c *Config) { c.Arch.NoCContention = false }},
	}
	var jobs []Job // each variant's S-NUCA and TD-NUCA runs in turn
	for _, v := range variants {
		cfgV := cfg
		v.mutate(&cfgV)
		jobs = append(jobs, suiteJobs(Job{Cfg: cfgV}, SNUCA, TDNUCA)...)
	}
	return jobs, func(results []Result) string {
		t := stats.Table{
			Title:  "Ablation: TD-NUCA design choices (speedup vs matching S-NUCA)",
			Header: []string{"Variant", "avg", "Gauss", "LU", "MD5"},
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
		return t.String() + "\n"
	}, nil
}

// clusterDims are the replication cluster geometries of the cluster
// sweep: 1x1 clusters give every core its own replica (maximum
// replication, 16 copies), the default 2x2 quadrants match the paper,
// and a 4x4 cluster is the whole chip (a single copy — replication
// disabled).
var clusterDims = [][2]int{{1, 1}, {2, 2}, {4, 4}}

// clusterSweep plans the LLC replication cluster study: each of
// clusterDims, reported per benchmark as TD-NUCA speedup over the
// (cluster-independent) S-NUCA baseline.
func clusterSweep(cfg Config, _ uint64) ([]Job, func([]Result) string, error) {
	// The S-NUCA baselines, then each geometry's TD-NUCA runs.
	jobs := suiteJobs(Job{Cfg: cfg}, SNUCA)
	for _, d := range clusterDims {
		c := cfg
		c.Arch.ClusterWidth, c.Arch.ClusterHeight = d[0], d[1]
		if err := c.Arch.Validate(); err != nil {
			return nil, nil, fmt.Errorf("cluster %dx%d: %w", d[0], d[1], err)
		}
		jobs = append(jobs, suiteJobs(Job{Cfg: c}, TDNUCA)...)
	}
	return jobs, func(results []Result) string {
		t := stats.Table{
			Title:  "Ablation: LLC replication cluster size (TD-NUCA speedup vs S-NUCA)",
			Header: []string{"Bench"},
		}
		for _, d := range clusterDims {
			t.Header = append(t.Header, fmt.Sprintf("%dx%d", d[0], d[1]))
		}
		bases := results[:len(PaperBenchOrder)]
		cells := map[string][]string{}
		sums := make([]float64, len(clusterDims))
		for di := range clusterDims {
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
		return t.String() + "\n"
	}, nil
}

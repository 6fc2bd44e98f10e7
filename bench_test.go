// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each BenchmarkFig*
// target shares one fully-measured suite (8 benchmarks x 4 policies at
// the default scale), prints the regenerated table on first use, and
// reports its headline number as a custom metric; BenchmarkFullSuite and
// the micro-benchmarks at the bottom measure the simulator itself.
package tdnuca_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"tdnuca"
	"tdnuca/internal/harness"
)

var (
	suiteOnce sync.Once
	suiteVal  tdnuca.Suite
	suiteErr  error
)

// suite runs the 8 benchmarks under S-NUCA, R-NUCA, TD-NUCA and the
// Bypass-Only variant exactly once per test binary invocation.
func suite(b *testing.B) tdnuca.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = tdnuca.RunSuite(tdnuca.ExperimentJob{Cfg: tdnuca.DefaultExperimentConfig()}, 0,
			tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA, tdnuca.TDBypassOnly)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

var printOnce sync.Map

// printTable emits each regenerated table exactly once per run.
func printTable(name, text string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

// runFigure regenerates the named entry of harness.Figures on its own, at
// the default configuration on the default pool, and returns its text.
func runFigure(b *testing.B, name string) string {
	b.Helper()
	for _, f := range harness.Figures {
		if f.Name == name {
			texts, _, _, err := harness.RunFigures([]harness.Figure{f}, tdnuca.DefaultExperimentConfig(), 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			return texts[0]
		}
	}
	b.Fatalf("no figure %q", name)
	return ""
}

func geoMeanSpeedup(s tdnuca.Suite, kind tdnuca.PolicyKind) float64 {
	prod, n := 1.0, 0
	for _, per := range s {
		prod *= per[kind].Speedup(per[tdnuca.SNUCA])
		n++
	}
	return math.Pow(prod, 1.0/float64(n))
}

func BenchmarkTable1Config(b *testing.B) {
	cfg := tdnuca.DefaultExperimentConfig()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.TableI(cfg)
	}
	printTable("table1", tbl.String())
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("table2", runFigure(b, "table2"))
	}
}

func BenchmarkFig3Classification(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.Fig3(s)
	}
	printTable("fig3", tbl.String())
}

func BenchmarkFig8Speedup(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.Fig8(s)
	}
	printTable("fig8", tbl.String())
	b.ReportMetric(geoMeanSpeedup(s, tdnuca.TDNUCA), "td-speedup")
	b.ReportMetric(geoMeanSpeedup(s, tdnuca.RNUCA), "r-speedup")
}

func BenchmarkFig9LLCAccesses(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.Fig9(s)
	}
	printTable("fig9", tbl.String())
}

func BenchmarkFig10HitRatio(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.Fig10(s)
	}
	printTable("fig10", tbl.String())
}

func BenchmarkFig11NUCADistance(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.Fig11(s)
	}
	printTable("fig11", tbl.String())
	var dist float64
	for _, bench := range tdnuca.Benchmarks() {
		dist += s[bench][tdnuca.SNUCA].Metrics.NUCADistance()
	}
	b.ReportMetric(dist/float64(len(tdnuca.Benchmarks())), "snuca-distance")
}

func BenchmarkFig12DataMovement(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.Fig12(s)
	}
	printTable("fig12", tbl.String())
	var ratio float64
	for _, bench := range tdnuca.Benchmarks() {
		ratio += float64(s[bench][tdnuca.TDNUCA].DataMovement) /
			float64(s[bench][tdnuca.SNUCA].DataMovement)
	}
	b.ReportMetric(ratio/float64(len(tdnuca.Benchmarks())), "td-movement-ratio")
}

func BenchmarkFig13LLCEnergy(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.Fig13(s)
	}
	printTable("fig13", tbl.String())
}

func BenchmarkFig14NoCEnergy(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.Fig14(s)
	}
	printTable("fig14", tbl.String())
}

func BenchmarkFig15BypassOnly(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.Fig15(s)
	}
	printTable("fig15", tbl.String())
	b.ReportMetric(geoMeanSpeedup(s, tdnuca.TDBypassOnly), "bypass-only-speedup")
}

func BenchmarkRRTLatencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("rrt-sweep", runFigure(b, "rrt"))
	}
}

func BenchmarkRRTOccupancy(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.OccupancyTable(s)
	}
	printTable("occupancy", tbl.String())
	var avg float64
	for _, bench := range tdnuca.Benchmarks() {
		avg += s[bench][tdnuca.TDNUCA].RRTAvgOcc
	}
	b.ReportMetric(avg/float64(len(tdnuca.Benchmarks())), "rrt-avg-occupancy")
}

func BenchmarkFlushOverhead(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var tbl tdnuca.Table
	for i := 0; i < b.N; i++ {
		tbl = tdnuca.FlushOverheadTable(s)
	}
	printTable("flush", tbl.String())
}

func BenchmarkRuntimeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("rt-overhead", runFigure(b, "rtoverhead"))
	}
}

// BenchmarkAblationDesignChoices regenerates the DESIGN.md §6 ablation:
// deferred flush and affinity scheduling switched off individually.
func BenchmarkAblationDesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("ablation", runFigure(b, "ablation"))
	}
}

// BenchmarkClusterSweep regenerates the replication-cluster-size ablation
// (1x1 per-core replicas, the paper's 2x2 quadrants, 4x4 no-replication).
func BenchmarkClusterSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("clusters", runFigure(b, "clusters"))
	}
}

// BenchmarkFullSuite measures one complete 8-benchmark x 3-policy
// evaluation per iteration — the end-to-end cost of regenerating the
// paper's main results on the default (one worker per CPU) pool.
// Compare against BenchmarkFullSuiteSequential for the parallel-harness
// speedup on a multi-core host.
func BenchmarkFullSuite(b *testing.B) {
	cfg := tdnuca.DefaultExperimentConfig()
	for i := 0; i < b.N; i++ {
		if _, err := tdnuca.RunSuite(tdnuca.ExperimentJob{Cfg: cfg}, 0, tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSuiteSequential is the one-worker reference for
// BenchmarkFullSuite (identical results, proven by digest equivalence
// tests in internal/harness).
func BenchmarkFullSuiteSequential(b *testing.B) {
	cfg := tdnuca.DefaultExperimentConfig()
	for i := 0; i < b.N; i++ {
		if _, err := tdnuca.RunSuite(tdnuca.ExperimentJob{Cfg: cfg}, 1, tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRun measures one LU run under TD-NUCA.
func BenchmarkSingleRun(b *testing.B) {
	cfg := tdnuca.DefaultExperimentConfig()
	for i := 0; i < b.N; i++ {
		if _, err := tdnuca.RunExperiment(context.Background(), tdnuca.ExperimentJob{Bench: "LU", Kind: tdnuca.TDNUCA, Cfg: cfg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryAccess measures the simulator's hot path: one demand
// access through TLB, L1, RRT, NoC and LLC.
func BenchmarkMemoryAccess(b *testing.B) {
	sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{Policy: tdnuca.TDNUCA})
	if err != nil {
		b.Fatal(err)
	}
	region := tdnuca.Region(0, 1<<20)
	done := make(chan struct{})
	sys.Spawn("driver", []tdnuca.Dep{{Range: region, Mode: tdnuca.InOut}}, func(e *tdnuca.Exec) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Read(tdnuca.Addr(uint64(i) * 64 % (1 << 20)))
		}
		b.StopTimer()
		close(done)
	})
	sys.Wait()
	<-done
}

// BenchmarkMemoryAccessEvict measures the hot path under LLC eviction
// pressure: the streamed region is 4x the total LLC capacity, so every
// access misses the L1, most miss the LLC, and each fill displaces a
// victim (directory entry churn, back-invalidations, DRAM writebacks).
func BenchmarkMemoryAccessEvict(b *testing.B) {
	sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{Policy: tdnuca.SNUCA})
	if err != nil {
		b.Fatal(err)
	}
	const region = 4 << 20 // 4x the scaled machine's 1MB LLC
	done := make(chan struct{})
	sys.Spawn("driver", []tdnuca.Dep{{Range: tdnuca.Region(0, region), Mode: tdnuca.InOut}}, func(e *tdnuca.Exec) {
		// Prime the region so page-table and directory growth is off the
		// measured loop.
		for a := uint64(0); a < region; a += 64 {
			e.Read(tdnuca.Addr(a))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Read(tdnuca.Addr(uint64(i) * 64 % region))
		}
		b.StopTimer()
		close(done)
	})
	sys.Wait()
	<-done
}

// BenchmarkTaskSpawn measures TDG insertion (dependency analysis).
func BenchmarkTaskSpawn(b *testing.B) {
	sys, err := tdnuca.NewSystem(tdnuca.SystemConfig{Policy: tdnuca.SNUCA})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := tdnuca.Region(tdnuca.Addr(i%1024)*8192, 8192)
		sys.Spawn("t", []tdnuca.Dep{{Range: r, Mode: tdnuca.InOut}}, func(*tdnuca.Exec) {})
		if i%4096 == 4095 {
			b.StopTimer()
			sys.Wait() // drain so the ready list does not grow unboundedly
			b.StartTimer()
		}
	}
	b.StopTimer()
	sys.Wait()
}

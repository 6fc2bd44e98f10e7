package harness

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"tdnuca/internal/arch"
	"tdnuca/internal/trace"
	"tdnuca/internal/workloads"
)

// fastCfg returns a configuration small enough for unit tests, with
// coherence verification enabled.
func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.Factor = 1.0 / 128.0
	cfg.Arch.CheckInvariants = true
	return cfg
}

func TestRunUnknownBenchmarkOrPolicy(t *testing.T) {
	if _, err := Run(context.Background(), Job{Bench: "nope", Kind: SNUCA, Cfg: fastCfg()}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(context.Background(), Job{Bench: "MD5", Kind: PolicyKind("bogus"), Cfg: fastCfg()}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunProducesMetrics(t *testing.T) {
	r, err := Run(context.Background(), Job{Bench: "MD5", Kind: SNUCA, Cfg: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Tasks != 128 || r.Metrics.Accesses == 0 {
		t.Errorf("result = %+v", r)
	}
	if len(r.Violations) > 0 {
		t.Errorf("violations: %v", r.Violations)
	}
	if r.AvgTaskKB <= 0 {
		t.Error("average task size not computed")
	}
}

func TestTDNUCAResultCarriesExtras(t *testing.T) {
	r, err := Run(context.Background(), Job{Bench: "LU", Kind: TDNUCA, Cfg: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if r.TDClassification.DepBlocks() == 0 {
		t.Error("no TD classification")
	}
	if r.RRTMaxOcc == 0 {
		t.Error("no RRT occupancy")
	}
	if len(r.Violations) > 0 {
		t.Errorf("violations: %v", r.Violations)
	}
}

func TestRNUCAResultCarriesClasses(t *testing.T) {
	r, err := Run(context.Background(), Job{Bench: "Kmeans", Kind: RNUCA, Cfg: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if r.RNUCAPrivate+r.RNUCASharedRO+r.RNUCAShared == 0 {
		t.Error("no R-NUCA classification")
	}
	if len(r.Violations) > 0 {
		t.Errorf("violations: %v", r.Violations)
	}
}

func TestSuiteAndMainFigures(t *testing.T) {
	cfg := fastCfg()
	s, err := RunSuite(Job{Cfg: cfg}, 0, SNUCA, RNUCA, TDNUCA, TDBypassOnly)
	if err != nil {
		t.Fatal(err)
	}
	for b, perPolicy := range s {
		for k, r := range perPolicy {
			if len(r.Violations) > 0 {
				t.Errorf("%s/%s violations: %v", b, k, r.Violations)
			}
			if r.Cycles == 0 {
				t.Errorf("%s/%s zero cycles", b, k)
			}
		}
	}

	// TD-NUCA must beat S-NUCA on average (the paper's headline result).
	var speedups []float64
	for _, b := range workloads.Names() {
		speedups = append(speedups, s[b][TDNUCA].Speedup(s[b][SNUCA]))
	}
	avg := 1.0
	for _, v := range speedups {
		avg *= v
	}
	if avg < 1.0 {
		t.Errorf("TD-NUCA slower than S-NUCA on aggregate: %v", speedups)
	}

	// Every figure renders with all 8 benchmark rows plus summary rows.
	for name, tbl := range map[string]string{
		"Fig3":  Fig3(s).String(),
		"Fig8":  Fig8(s).String(),
		"Fig9":  Fig9(s).String(),
		"Fig10": Fig10(s).String(),
		"Fig11": Fig11(s).String(),
		"Fig12": Fig12(s).String(),
		"Fig13": Fig13(s).String(),
		"Fig14": Fig14(s).String(),
		"Fig15": Fig15(s).String(),
	} {
		for _, b := range workloads.Names() {
			if !strings.Contains(tbl, b) {
				t.Errorf("%s missing row for %s:\n%s", name, b, tbl)
			}
		}
	}

	// Directional checks against the paper's shape.
	occ := OccupancyTable(s)
	if len(occ.Rows) < 9 {
		t.Errorf("occupancy table too short:\n%s", occ.String())
	}
	flush := FlushOverheadTable(s)
	if len(flush.Rows) < 9 {
		t.Errorf("flush table too short:\n%s", flush.String())
	}

	// Bypass reduces LLC accesses dramatically for MD5.
	md5Ratio := float64(s["MD5"][TDNUCA].Metrics.LLCAccesses) /
		float64(s["MD5"][SNUCA].Metrics.LLCAccesses)
	if md5Ratio > 0.5 {
		t.Errorf("MD5 LLC access ratio = %.2f; expected a large bypass reduction", md5Ratio)
	}

	// S-NUCA's NUCA distance is near the theoretical 2.5.
	sDist := s["MD5"][SNUCA].Metrics.NUCADistance()
	if sDist < 2.0 || sDist > 3.0 {
		t.Errorf("S-NUCA NUCA distance = %.2f; expected ~2.5", sDist)
	}
}

// TestFlushOverheadUsesCoreCount pins the flush share's denominator to
// the run's aggregate core-cycles: on a 64-core run, 640 flush cycles
// over a 1000-cycle makespan are 1.0% of the machine's time, not the
// 4.0% a fixed 16-core divisor reports.
func TestFlushOverheadUsesCoreCount(t *testing.T) {
	const cores, cycles = 64, 1000
	s := make(Suite)
	for _, b := range PaperBenchOrder {
		r := Result{Cycles: cycles, Stack: trace.CycleStack{Idle: cores * cycles}}
		r.Metrics.FlushCycles = 640
		s[b] = map[PolicyKind]Result{TDNUCA: r}
	}
	tbl := FlushOverheadTable(s)
	for _, row := range tbl.Rows[:len(PaperBenchOrder)] {
		if row[1] != "1.0%" {
			t.Errorf("%s flush time = %s, want 1.0%% of %d cores x %d cycles", row[0], row[1], cores, cycles)
		}
	}
}

func TestTableIRendersConfig(t *testing.T) {
	cfg := DefaultConfig()
	tbl := TableI(cfg)
	s := tbl.String()
	// The topology strings derive from the config, not from a hard-coded
	// 4x4 assumption: the same renderer must describe any mesh.
	for _, want := range []string{
		fmt.Sprintf("%d cores", cfg.Arch.NumCores),
		fmt.Sprintf("%dx%d mesh", cfg.Arch.MeshWidth, cfg.Arch.MeshHeight),
		"RRT", "pseudoLRU",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
	big := cfg
	big.Arch = arch.ScaledMeshConfig(8, 8)
	if s := TableI(big).String(); !strings.Contains(s, "64 cores, 8x8 mesh") {
		t.Errorf("Table I on an 8x8 mesh does not describe it:\n%s", s)
	}
}

// runFigure runs the named entry of Figures alone at cfg and returns its
// text and the batch's distinct jobs and results.
func runFigure(t *testing.T, name string, cfg Config) (string, []Job, []Result) {
	t.Helper()
	texts, jobs, results, err := RunFigures([]Figure{figure(t, name)}, cfg, faultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return texts[0], jobs, results
}

// figure looks up the named entry of Figures.
func figure(t *testing.T, name string) Figure {
	t.Helper()
	for _, f := range Figures {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no figure %q", name)
	return Figure{}
}

// tableRows splits a rendered table into its header and body rows, one
// cell per column (cells are separated by at least two spaces).
func tableRows(text string) (header []string, rows [][]string) {
	gap := regexp.MustCompile(`\s{2,}`)
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for i, line := range lines {
		if i > 0 && line != "" && strings.Trim(line, "-") == "" {
			header = strings.Fields(lines[i-1])
			for _, row := range lines[i+1:] {
				rows = append(rows, gap.Split(row, -1))
			}
			break
		}
	}
	return header, rows
}

func TestTableII(t *testing.T) {
	s, _, _ := runFigure(t, "table2", fastCfg())
	for _, b := range workloads.Names() {
		if !strings.Contains(s, b) {
			t.Errorf("Table II missing %s:\n%s", b, s)
		}
	}
}

// TestRunFiguresSharesRuns: a batch of figures simulates each distinct
// job once, and renders every figure exactly as it renders alone.
func TestRunFiguresSharesRuns(t *testing.T) {
	cfg := DefaultConfig() // the checker off: this test is raced in CI
	cfg.Factor = 1.0 / 128
	names := []string{"8", "ablation", "clusters"}
	var figs []Figure
	for _, n := range names {
		figs = append(figs, figure(t, n))
	}
	texts, jobs, results, err := RunFigures(figs, cfg, faultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8 plans 24 runs (S/R/TD x 8). The ablation's 80 share its
	// full-design S-NUCA and TD-NUCA runs (16) with Fig. 8; the cluster
	// sweep's 32 share their S-NUCA baselines and 2x2 column (16). So
	// 136 planned runs are 24 + 64 + 16 = 104 distinct ones.
	if len(jobs) != 104 || len(results) != 104 {
		t.Errorf("batch ran %d jobs (%d results), want 104", len(jobs), len(results))
	}
	for i, n := range names {
		if alone, _, _ := runFigure(t, n, cfg); texts[i] != alone {
			t.Errorf("figure %s in a batch differs from alone:\n%s\nalone:\n%s", n, texts[i], alone)
		}
	}
}

func TestRuntimeOverheadSmall(t *testing.T) {
	cfg := fastCfg()
	base, err := Run(context.Background(), Job{Bench: "Kmeans", Kind: SNUCA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	no, err := Run(context.Background(), Job{Bench: "Kmeans", Kind: TDNoISA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ov := float64(no.Cycles)/float64(base.Cycles) - 1
	if ov < 0 {
		t.Errorf("runtime-only overhead negative: %v", ov)
	}
	if ov > 0.05 {
		t.Errorf("runtime-only overhead = %.2f%%; paper reports <=0.03%%", 100*ov)
	}
}

func TestRRTLatencySweepMonotone(t *testing.T) {
	s, _, _ := runFigure(t, "rrt", fastCfg())
	if _, rows := tableRows(s); len(rows) != len(rrtLatencies) {
		t.Fatalf("sweep rows = %d:\n%s", len(rows), s)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := fastCfg()
	a, err := Run(context.Background(), Job{Bench: "Jacobi", Kind: TDNUCA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), Job{Bench: "Jacobi", Kind: TDNUCA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Metrics != b.Metrics || a.DataMovement != b.DataMovement {
		t.Error("identical configurations produced different results")
	}
}

func TestAblationTable(t *testing.T) {
	s, _, _ := runFigure(t, "ablation", fastCfg())
	_, rows := tableRows(s)
	if len(rows) != 5 {
		t.Fatalf("ablation rows = %d:\n%s", len(rows), s)
	}
	// The full design must not lose to the fully-ablated variant on the
	// headline average (that is the point of the design choices).
	full, ablated := rows[0][1], rows[3][1]
	if full < ablated {
		t.Errorf("full design %s slower than fully ablated %s", full, ablated)
	}
}

func TestClusterSweep(t *testing.T) {
	s, _, _ := runFigure(t, "clusters", fastCfg())
	if header, rows := tableRows(s); len(header) != 4 || len(rows) != 9 {
		t.Fatalf("cluster sweep shape %dx%d:\n%s", len(header), len(rows), s)
	}
}

func TestClusterSweepRejectsBadDims(t *testing.T) {
	cfg := fastCfg()
	cfg.Arch = arch.ScaledMeshConfig(6, 6)
	_, _, _, err := RunFigures([]Figure{figure(t, "clusters")}, cfg, faultSeed, 0)
	if err == nil || !strings.Contains(err.Error(), "cluster 4x4") {
		t.Errorf("4x4 clusters on a 6x6 mesh: got %v, want the cluster 4x4 error", err)
	}
}

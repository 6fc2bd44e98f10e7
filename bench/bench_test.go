package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/harness"
	"tdnuca/internal/machine"
	"tdnuca/internal/policy"
	"tdnuca/internal/rnuca"
)

// toyConfig shrinks a workload to smoke size: factor 1/128, one
// repetition, one set-up, 4 cold jobs and 20 repeats per serve round, and
// 1% of the probe loops.
func toyConfig(t *testing.T, workload string, trace bool) config {
	c := defaultConfig()
	c.workload, c.trace, c.toy = workload, trace, true
	c.workDir = t.TempDir()
	return c
}

// idle reports whether a per-layer metric belongs to a layer the workload
// never calls, so that it reads 0: the service layers outside serve-mix
// (but for the in-process probe), and R-NUCA, which only paper-suite runs.
func idle(workload, metric string) bool {
	service := strings.HasPrefix(metric, "client.") ||
		strings.HasPrefix(metric, "serve.") && metric != "serve.inproc_submit_us"
	return workload != "serve-mix" && service ||
		workload != "paper-suite" && metric == "policy.place_ns.rnuca"
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func TestEveryWorkloadReportsTheCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadList[i].name)
		}
	}
	for _, cat := range []struct {
		json, code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(cat.json) != len(cat.code) {
			t.Fatalf("BENCHMARK.json has %d metrics where the benchmark has %d", len(cat.json), len(cat.code))
		}
		for i := range cat.json {
			if cat.json[i] != cat.code[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, benchmark %+v", i, cat.json[i], cat.code[i])
			}
		}
	}

	for _, w := range workloadList {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				t.Parallel()
				checkWorkload(t, w.name, trace, spec.EndToEnd, spec.PerLayer)
			})
		}
	}
}

// checkWorkload runs one workload at toy size and checks its result line
// against the catalog of its mode. A correct traced paper-suite means
// every traced rebuild of S-NUCA, R-NUCA and TD-NUCA reproduced its
// harness twin exactly.
func checkWorkload(t *testing.T, name string, trace bool, endToEnd, perLayer []metricDef) {
	cfg := toyConfig(t, name, trace)
	r, err := runOne(cfg, logWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
		timed := map[string]bool{"s": true, "ms": true, "us": true, "ns": true}[d.Unit]
		switch {
		case trace && idle(name, d.Name):
			if m.Value != 0 {
				t.Errorf("metric %s = %v %s, want 0: the workload never calls its layer", d.Name, m.Value, d.Unit)
			}
		case (!trace || timed) && !(m.Value > 0):
			t.Errorf("metric %s = %v %s, want > 0", d.Name, m.Value, d.Unit)
		}
	}
	if trace {
		if _, err := os.Stat(filepath.Join(cfg.workDir, "bench-trace-"+name+".json")); err != nil {
			t.Errorf("no trace file: %v", err)
		}
	}
}

// TestPolicyWrapperForwardsWriteObserver: the machine finds
// machine.WriteObserver by type assertion, so the timing wrapper must
// expose it exactly when the policy has it. With read-only pages enabled
// (the harness's R-NUCA assumes every page was written at initialization,
// so Table II runs never take this path), a silent E->M upgrade must
// demote a shared read-only page through the wrapper as it does without.
func TestPolicyWrapperForwardsWriteObserver(t *testing.T) {
	t.Parallel()
	a := arch.ScaledConfig()
	demotions := func(wrap bool) rnuca.Stats {
		m := machine.MustNew(&a, 0, 1)
		rn := rnuca.New(m)
		rn.AssumeInitWritten = false
		var p machine.Policy = rn
		if wrap {
			p = (&layerTimes{}).wrapPolicy(rn)
		}
		m.SetPolicy(p)
		page := amath.Addr(1 << 20)
		m.Access(0, page, false)     // private to core 0
		m.Access(1, page+64, false)  // read by a second core: shared read-only
		m.Access(0, page+128, false) // exclusive in core 0's L1
		m.Access(0, page+128, true)  // silent E->M upgrade: demoted to shared
		return rn.Stats()
	}
	want, got := demotions(false), demotions(true)
	if want.SharedROToShared != 1 || got != want {
		t.Errorf("R-NUCA stats through the wrapper %+v, without %+v", got, want)
	}
	if _, ok := (&layerTimes{}).wrapPolicy(policy.NewSNUCA()).(machine.WriteObserver); ok {
		t.Error("wrapped S-NUCA gained machine.WriteObserver")
	}
}

// TestSeedChangesInputs: --seed changes the generated DAG, the machine
// seed of the simulation jobs, and the seeds and draws of the serve
// rounds.
func TestSeedChangesInputs(t *testing.T) {
	t.Parallel()
	c1, c2 := toyConfig(t, "taskgraph-fine", false), toyConfig(t, "taskgraph-fine", false)
	c2.seed = 2
	j1, j2 := taskgraphJobs(c1)[1], taskgraphJobs(c2)[1]
	if j1.Cfg.Seed == j2.Cfg.Seed {
		t.Error("the machine seed ignores --seed")
	}
	runs, err := runJobs([]harness.Job{j1, j2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].res.AccessDigest == runs[1].res.AccessDigest {
		t.Error("seeds 1 and 2 generate the same task graph")
	}
	c1.toy, c2.toy = false, false
	seeds := map[uint64]bool{}
	for r := 0; r < 3; r++ {
		o1, o2 := roundOps(c1, r), roundOps(c2, r)
		if seeds[o1[0].spec.Seed] || o1[0].spec.Seed == o2[0].spec.Seed {
			t.Errorf("round %d reuses a seed: %d under --seed 1, %d under --seed 2", r, o1[0].spec.Seed, o2[0].spec.Seed)
		}
		seeds[o1[0].spec.Seed] = true
		same := true
		for i := range o1 {
			same = same && o1[i].slot == o2[i].slot
		}
		if same {
			t.Errorf("round %d draws the same jobs under --seed 1 and 2", r)
		}
	}
}

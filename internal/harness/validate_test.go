package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tdnuca/internal/workgen"
	"tdnuca/internal/workloads"
)

// fineGenName is the fine-grained generated DAG of the taskgraph-fine
// benchmark workload: 32,768 one-block tasks.
const fineGenName = "gen:seed=1,depth=256,width=128,fanout=6,reuse=8,bytes=2048"

// resolveOracle is what validation meant before it stopped building the
// workload: resolve the spec, then check the rest of the job.
func resolveOracle(j Job) error {
	if _, err := resolveSpec(j.Bench, j.Cfg.Factor); err != nil {
		return identify(j.Bench, j.Kind, err)
	}
	return j.check()
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// randomGenName draws a generator name whose knobs straddle
// Params.Validate's bounds (including syntax errors), kept small enough
// that the oracle's full expansion of an accepted name stays fast.
func randomGenName(rng *rand.Rand) string {
	// Each knob is in range three times in four, otherwise an edge or
	// out-of-range value.
	knob := func(lo, hi int, out ...string) string {
		if rng.Intn(4) != 0 {
			return fmt.Sprint(lo + rng.Intn(hi-lo+1))
		}
		return out[rng.Intn(len(out))]
	}
	knobs := []struct {
		key string
		val func() string
	}{
		{"seed", func() string { return knob(0, 99, "-1", "18446744073709551616") }},
		{"depth", func() string { return knob(1, 8, "0", "-1", "256", "257", "x") }},
		{"width", func() string { return knob(1, 16, "0", "1024", "1025") }},
		{"fanout", func() string { return knob(0, 8, "-1", "64", "65") }},
		{"reuse", func() string { return knob(1, 8, "0", "9", "257") }},
		{"bytes", func() string { return knob(64, 4096, "63", "16777216", "16777217", "-5") }},
		{"overlap", func() string { return knob(0, 100, "-1", "101") }},
		{"inout", func() string { return knob(0, 100, "-1", "101") }},
		{"compute", func() string { return knob(0, 100, "-1", "1048576", "1048577") }},
		{"wait", func() string { return knob(0, 4, "-1", "9") }},
	}
	var parts []string
	for _, k := range knobs {
		if rng.Intn(3) != 0 {
			parts = append(parts, k.key+"="+k.val())
		}
	}
	switch rng.Intn(25) {
	case 0:
		parts = append(parts, "turbo=1")
	case 1:
		parts = append(parts, "novalue")
	}
	return workgen.Prefix + strings.Join(parts, ",")
}

// TestValidateMatchesResolve is the oracle for name-only admission:
// Job.Validate must return exactly the error that resolving the spec and
// then checking the job returns, for Table II names, near misses,
// generated names inside and outside the generator's envelope, and
// garbage — under a valid job and under jobs whose other fields are
// wrong too, so the order of the checks is pinned as well.
func TestValidateMatchesResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := append(workloads.Names(), "gauss", "Gauss ", " LU", "", "gen", "GEN:seed=1",
		"gen:", "gen:seed=3,depth=4,width=8", fineGenName)
	for i := 0; i < 200; i++ {
		names = append(names, randomGenName(rng))
	}
	for i := 0; i < 50; i++ {
		b := make([]byte, rng.Intn(12))
		for k := range b {
			b[k] = byte(rng.Intn(256))
		}
		names = append(names, string(b))
	}

	cfg := fastCfg()
	badArch := cfg
	badArch.Arch.ClusterWidth, badArch.Arch.ClusterHeight = 3, 3
	noRRT := cfg
	noRRT.Arch.RRTEntries = 0
	protos := []Job{
		{Kind: TDNUCA, Cfg: cfg},
		{Kind: "warp-NUCA", Cfg: cfg},
		{Kind: SNUCA, Cfg: badArch},
		{Kind: TDBypassOnly, Cfg: noRRT},
	}
	accepted := 0
	for _, name := range names {
		for _, proto := range protos {
			j := proto
			j.Bench = name
			got, want := errString(j.Validate()), errString(resolveOracle(j))
			if got != want {
				t.Errorf("Validate(%q under %q) = %s, want %s", name, j.Kind, got, want)
			}
			if got == "<nil>" {
				accepted++
			}
		}
	}
	if accepted < len(workloads.Names())+10 {
		t.Errorf("only %d jobs accepted: the inputs barely exercise the accepting path", accepted)
	}
}

// TestValidateBuildsNoWorkload asserts that admission only names the
// workload: validating a Table II job or the fine-grained generated DAG
// allocates exactly what the architecture check and the generator-name
// parse allocate on their own, nothing for a spec.
func TestValidateBuildsNoWorkload(t *testing.T) {
	cfg := DefaultConfig()
	archAllocs := testing.AllocsPerRun(20, func() { _ = cfg.Arch.Validate() })
	parseAllocs := testing.AllocsPerRun(20, func() { _, _ = workgen.Parse(fineGenName) })
	for _, tc := range []struct {
		bench string
		want  float64
	}{
		{"Gauss", archAllocs},
		{"Histo", archAllocs},
		{fineGenName, archAllocs + parseAllocs},
	} {
		j := Job{Bench: tc.bench, Kind: TDNUCA, Cfg: cfg}
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() { _ = j.Validate() }); got != tc.want {
			t.Errorf("Validate(%s): %v allocs, want %v (Arch.Validate + workgen.Parse only)", tc.bench, got, tc.want)
		}
	}
}

// BenchmarkJobValidate measures admission of one job: a Table II name
// and the fine-grained generated DAG's name.
func BenchmarkJobValidate(b *testing.B) {
	for _, bc := range []struct{ name, bench string }{{"TableII", "LU"}, {"gen-fine", fineGenName}} {
		j := Job{Bench: bc.bench, Kind: TDNUCA, Cfg: DefaultConfig()}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := j.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

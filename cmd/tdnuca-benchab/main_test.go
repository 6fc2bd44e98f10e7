package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 2 3 4", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles(1..4) = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if _, med, _ := quartiles(nil); !math.IsNaN(med) {
		t.Errorf("median of nothing = %v, want NaN", med)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	ref := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		spec metricSpec
		ref  []float64
		chg  []float64
		want string
		wins int
	}{
		{"gain", lower, ref, scale(ref, 0.87), "gain", 10},
		{"same", lower, ref, ref, "within bound", 0},
		{"regression", lower, ref, scale(ref, 1.2), "REGRESSION", 0},
		{"noisy ref", lower, []float64{5, 15, 5, 15}, []float64{5, 15, 5, 15}, "unresolved", 0},
		{"higher is better", higher, ref, scale(ref, 1.2), "gain", 10},
		{"higher is better, worse", higher, ref, scale(ref, 0.8), "REGRESSION", 0},
	} {
		c := compare(tc.spec, tc.ref, tc.chg)
		if !strings.HasPrefix(c.verdict, tc.want) || c.wins != tc.wins {
			t.Errorf("%s: verdict %q wins %d, want %q and %d", tc.name, c.verdict, c.wins, tc.want, tc.wins)
		}
	}
	// Fewer than 10 pairs never make a gain.
	if c := compare(lower, ref[:9], scale(ref[:9], 0.5)); c.wins != 9 || c.verdict != "within bound" {
		t.Errorf("9 pairs: verdict %q wins %d", c.verdict, c.wins)
	}
	// 8 wins in 10 is not a gain, however large the gap.
	chg := scale(ref, 0.5)
	chg[0], chg[1] = 20, 20
	if c := compare(lower, ref, chg); c.wins != 8 || strings.HasPrefix(c.verdict, "gain") {
		t.Errorf("8/10 wins: verdict %q wins %d", c.verdict, c.wins)
	}
}

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

// TestCompareNullAllocGap feeds compare the null A/B's alloc_mb sample:
// two identical arms whose medians differ by 0.05% with the change
// lower in 9 of 10 pairs and a tight reference IQR. A gap below minGain
// of the median is no gain.
func TestCompareNullAllocGap(t *testing.T) {
	spec := metricSpec{Name: "alloc_mb", Better: "lower", Bound: 0.02}
	ref := []float64{61.17, 61.18, 61.19, 61.18, 61.17, 61.18, 61.19, 61.18, 61.16, 61.18}
	chg := []float64{61.15, 61.14, 61.15, 61.16, 61.15, 61.15, 61.16, 61.14, 61.17, 61.15}
	c := compare(spec, ref, chg)
	if c.wins != 9 || c.chgMed-c.refMed > -c.refIQR {
		t.Fatalf("sample does not pass the wins and IQR tests: %d wins, medians %.3f/%.3f, ref IQR %.4f", c.wins, c.refMed, c.chgMed, c.refIQR)
	}
	if c.verdict != "within bound" {
		t.Errorf("null alloc_mb gap: verdict %q, want \"within bound\"", c.verdict)
	}
	// The same sample scaled to a 1% gap is a gain.
	for i := range chg {
		chg[i] = ref[i] * 0.99
	}
	if c := compare(spec, ref, chg); !strings.HasPrefix(c.verdict, "gain") {
		t.Errorf("1%% gap: verdict %q, want a gain", c.verdict)
	}
}

// TestRatioBand checks the sign-test band against hand-computed order
// statistics and coverages: C(n, i)/2^n summed by hand for each n.
func TestRatioBand(t *testing.T) {
	ones := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 1
		}
		return xs
	}
	// Ratios 0.80, 0.81, ..., in scrambled order; ref is 2 so the ratio
	// is chg/2.
	ratios := func(n int) (ref, chg []float64) {
		ref = make([]float64, n)
		chg = make([]float64, n)
		for i := range ref {
			ref[i] = 2
			chg[i] = 2 * (0.80 + 0.01*float64((i*7)%n))
		}
		return ref, chg
	}
	ref10, chg10 := ratios(10)
	ref20, chg20 := ratios(20)
	ref5, chg5 := ratios(5)
	for _, tc := range []struct {
		name          string
		ref, chg      []float64
		ok            bool
		lo, hi, cover float64
	}{
		// k=3: 1 - 2*(1+10+45)/1024 = 912/1024.
		{"10 pairs", ref10, chg10, true, 0.82, 0.87, 912.0 / 1024},
		// k=7: 1 - 2*(1+20+190+1140+4845+15504+38760)/2^20.
		{"20 pairs", ref20, chg20, true, 0.86, 0.93, 1 - 2*60460.0/(1<<20)},
		// k=1 (min..max): 1 - 2/32; k=2 would be 1 - 12/32.
		{"5 pairs", ref5, chg5, true, 0.80, 0.84, 30.0 / 32},
		// k=1 at n=4: 1 - 2/16 = 87.5%.
		{"4 equal pairs", ones(4), ones(4), true, 1, 1, 14.0 / 16},
		// Even min..max of 3 pairs covers only 75%.
		{"3 pairs", ones(3), ones(3), false, 0, 0, 0},
		{"no pairs", nil, nil, false, 0, 0, 0},
		{"zero sample", []float64{1, 1, 1, 0}, ones(4), false, 0, 0, 0},
	} {
		lo, hi, cover, ok := ratioBand(tc.ref, tc.chg)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		const eps = 1e-12
		if math.Abs(lo-tc.lo) > eps || math.Abs(hi-tc.hi) > eps || math.Abs(cover-tc.cover) > eps {
			t.Errorf("%s: band %.15g..%.15g @%.15g, want %.15g..%.15g @%.15g", tc.name, lo, hi, cover, tc.lo, tc.hi, tc.cover)
		}
	}
	if c := compare(metricSpec{Better: "lower", Bound: 0.1}, ref10, chg10); c.band != "0.820..0.870 @89%" {
		t.Errorf("compare band = %q", c.band)
	}
}

package sim

import "testing"

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced stuck-at-zero stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		counts[v]++
	}
	for v, n := range counts {
		if n == 0 {
			t.Errorf("Intn(10) never produced %d in 10000 draws", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestShufflePermutes(t *testing.T) {
	r := NewRNG(11)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		if seen[x] {
			t.Fatalf("shuffle duplicated %d", x)
		}
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Error("shuffle lost elements")
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(5)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Error("forked streams with different labels collided immediately")
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 || Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Max/Min wrong")
	}
}

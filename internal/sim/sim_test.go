package sim

import (
	"testing"
	"testing/quick"
)

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

func TestServerFIFO(t *testing.T) {
	var s Server
	start, done := s.Serve(10, 5)
	if start != 10 || done != 15 {
		t.Errorf("idle server: start=%d done=%d, want 10,15", start, done)
	}
	// Arriving while busy waits for the server.
	start, done = s.Serve(12, 5)
	if start != 15 || done != 20 {
		t.Errorf("busy server: start=%d done=%d, want 15,20", start, done)
	}
	// Arriving after it drained starts immediately.
	start, done = s.Serve(100, 1)
	if start != 100 || done != 101 {
		t.Errorf("drained server: start=%d done=%d, want 100,101", start, done)
	}
	if s.BusyCycles() != 11 || s.Requests() != 3 {
		t.Errorf("stats: busy=%d reqs=%d, want 11,3", s.BusyCycles(), s.Requests())
	}
	s.Reset()
	if s.BusyCycles() != 0 || s.Requests() != 0 || s.NextFree() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestServerProperty(t *testing.T) {
	f := func(arrivals []uint16, services []uint8) bool {
		var s Server
		var prevDone Cycles
		n := len(arrivals)
		if len(services) < n {
			n = len(services)
		}
		var now Cycles
		for i := 0; i < n; i++ {
			now += Cycles(arrivals[i] % 100) // non-decreasing arrival times
			start, done := s.Serve(now, Cycles(services[i]%20))
			if start < now || start < prevDone || done != start+Cycles(services[i]%20) {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue[string]
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	q.Push(10, "a2") // tie: FIFO after "a"
	want := []struct {
		at Cycles
		v  string
	}{{10, "a"}, {10, "a2"}, {20, "b"}, {30, "c"}}
	for _, w := range want {
		at, v, ok := q.Pop()
		if !ok || at != w.at || v != w.v {
			t.Fatalf("Pop = (%d,%q,%v), want (%d,%q)", at, v, ok, w.at, w.v)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue returned ok")
	}
}

func TestEventQueuePeek(t *testing.T) {
	var q EventQueue[int]
	if _, _, ok := q.Peek(); ok {
		t.Error("Peek on empty queue returned ok")
	}
	q.Push(5, 99)
	at, v, ok := q.Peek()
	if !ok || at != 5 || v != 99 {
		t.Errorf("Peek = (%d,%d,%v)", at, v, ok)
	}
	if q.Len() != 1 {
		t.Error("Peek consumed the event")
	}
}

func TestEventQueueHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q EventQueue[int]
		for i, at := range times {
			q.Push(Cycles(at), i)
		}
		var prev Cycles
		for q.Len() > 0 {
			at, _, _ := q.Pop()
			if at < prev {
				return false
			}
			prev = at
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 || Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Max/Min wrong")
	}
}

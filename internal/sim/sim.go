// Package sim provides the small deterministic simulation kernel the rest
// of the simulator is built on: a cycle type, a seeded xorshift RNG (no
// global state, no wall clock — every run is bit-reproducible), a
// next-free-time occupancy server for modelling busy resources, and a
// generic min-heap event queue used by the task scheduler.
package sim

// Cycles counts simulated clock cycles.
type Cycles uint64

// Max returns the later of two cycle counts.
func Max(a, b Cycles) Cycles {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of two cycle counts.
func Min(a, b Cycles) Cycles {
	if a < b {
		return a
	}
	return b
}

// RNG is a deterministic xorshift64* pseudo-random generator. The zero
// value is not valid; construct with NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (seed 0 is remapped so the
// xorshift state never sticks at zero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Shuffle pseudo-randomly permutes n elements using the swap function,
// with the Fisher-Yates algorithm.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Fork derives an independent generator whose stream is a deterministic
// function of this generator's state and the label, so that subsystems
// can draw random numbers without perturbing each other's sequences.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xbf58476d1ce4e5b9) ^ 0x94d049bb133111eb)
}

// Server models a single resource (an LLC bank, a memory controller) with
// FIFO service and a next-free-time discipline: a request arriving at
// `now` starts service at max(now, nextFree) and occupies the server for
// `service` cycles. Busy time and request counts are accumulated for
// utilization statistics.
type Server struct {
	nextFree Cycles
	busy     Cycles
	requests uint64
}

// Serve admits a request arriving at now that needs service cycles of
// occupancy. It returns the cycle at which service starts (>= now) and
// the cycle at which it completes.
func (s *Server) Serve(now, service Cycles) (start, done Cycles) {
	start = Max(now, s.nextFree)
	done = start + service
	s.nextFree = done
	s.busy += service
	s.requests++
	return start, done
}

// BusyCycles returns the total cycles of service the server has performed.
func (s *Server) BusyCycles() Cycles { return s.busy }

// Requests returns the number of requests served.
func (s *Server) Requests() uint64 { return s.requests }

// NextFree returns the cycle at which the server next becomes idle.
func (s *Server) NextFree() Cycles { return s.nextFree }

// Reset clears all state and statistics.
func (s *Server) Reset() { *s = Server{} }

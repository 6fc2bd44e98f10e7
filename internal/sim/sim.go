// Package sim provides the small deterministic simulation kernel the rest
// of the simulator is built on: a cycle type and a seeded xorshift RNG
// (no global state, no wall clock — every run is bit-reproducible).
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

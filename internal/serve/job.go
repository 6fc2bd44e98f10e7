// Package serve is the experiment service: an HTTP/JSON backend that
// accepts simulation jobs (benchmark x policy x configuration, with
// optional fault scenarios and tracing), runs them on a bounded worker
// pool, and caches results by canonical content address so identical
// jobs — from any client, at any time — are simulated exactly once.
//
// Determinism is what makes the cache sound: a harness run is a pure
// function of its normalized spec (internal/harness digests prove it),
// so the FNV-1a address of that spec is a complete key. A cache hit
// returns the byte-identical payload a fresh run would have produced.
//
// The package is wall-clock free by construction (the determinism lint
// applies here as to every simulation package): admission control uses
// a constant Retry-After hint, and all waiting is event-driven — state
// transitions, context cancellation — never timers.
package serve

import (
	"fmt"
	"math"

	"tdnuca/internal/arch"
	"tdnuca/internal/faults"
	"tdnuca/internal/harness"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
	"tdnuca/internal/workloads"
)

// JobSpec is the wire form of one simulation job. Zero-valued optional
// fields mean "the experiment default" (the same defaults every CLI in
// this repo uses); normalize makes them explicit so that two spellings
// of the same job share one content address.
type JobSpec struct {
	// Bench is a Table II benchmark name or a "gen:" generated-workload
	// spec (internal/workgen syntax).
	Bench string `json:"bench"`
	// Policy is a PolicyKind name ("S-NUCA", "R-NUCA", "TD-NUCA",
	// "TD-NUCA (Bypass Only)", "TD-NUCA (runtime only)") or any spelling
	// harness.ParsePolicy accepts (s, rnuca, td-nuca, bypass, noisa, ...);
	// normalize stores the display name.
	Policy string `json:"policy"`
	// Mesh is "WxH" ("4x4" default; arch.ParseMesh syntax), stored in
	// canonical "%dx%d" form. Non-default meshes use the scaled cache
	// hierarchy (arch.ScaledMeshConfig), like the sweep CLIs.
	Mesh string `json:"mesh,omitempty"`
	// Factor scales the workload footprint (0 = the default 1/32).
	Factor float64 `json:"factor,omitempty"`
	// Seed seeds page placement (0 = the default seed 1).
	Seed uint64 `json:"seed,omitempty"`
	// FragEvery is the physical fragmentation period: 0 = the default
	// (16), -1 = fully contiguous. normalize keeps -1 as is (0 would read
	// back as the default), so a normalized spec normalizes to itself.
	FragEvery int `json:"frag_every,omitempty"`
	// Faults is an optional fault scenario in -faults syntax; the job
	// then runs degraded and its payload carries fault counters.
	Faults string `json:"faults,omitempty"`
	// MaxCycles caps the simulated schedule (0 = no budget); a run that
	// exceeds it fails with a budget error rather than running away.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Trace attaches the interval tracer; the payload then carries the
	// interval time series and the stream endpoint replays it.
	Trace bool `json:"trace,omitempty"`

	// Priority orders the queue (higher first, FIFO within a level). It
	// is excluded from the content address: it affects when a job runs,
	// never what it produces.
	Priority int `json:"priority,omitempty"`
}

// normalize fills defaults in place and canonicalizes spellings, so the
// content address is independent of how the client spelled the job.
// It returns the first validation problem as a client error.
func (j *JobSpec) normalize() error {
	if j.Bench == "" {
		return fmt.Errorf("bench is required")
	}
	kind, ok := harness.ParsePolicy(j.Policy)
	if !ok {
		return fmt.Errorf("unknown policy %q", j.Policy)
	}
	j.Policy = string(kind)
	if j.Mesh == "" {
		j.Mesh = "4x4"
	}
	w, h, err := arch.ParseMesh(j.Mesh)
	if err != nil {
		return err
	}
	j.Mesh = fmt.Sprintf("%dx%d", w, h)
	if j.Factor == 0 {
		j.Factor = float64(workloads.DefaultFactor)
	}
	if j.Factor < 0 {
		return fmt.Errorf("factor must be positive (got %v)", j.Factor)
	}
	if j.Seed == 0 {
		j.Seed = 1
	}
	switch {
	case j.FragEvery == 0:
		j.FragEvery = 16
	case j.FragEvery < -1:
		return fmt.Errorf("frag_every must be >= -1 (got %d)", j.FragEvery)
	}
	if j.Faults != "" {
		sc, err := faults.Parse(j.Faults)
		if err != nil {
			return err
		}
		j.Faults = sc.String()
		if j.Trace {
			return fmt.Errorf("trace and faults cannot be combined on one job")
		}
	}
	return nil
}

// FNV-1a, the digest discipline of the whole repo (harness.Result.Digest
// and the golden suite fingerprints use the same constants).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) bytes(b []byte) {
	x := *h
	for _, c := range b {
		x = (x ^ fnv64(c)) * fnvPrime64
	}
	*h = x
}

func (h *fnv64) str(s string) {
	h.bytes([]byte(s))
	h.bytes([]byte{0}) // unambiguous field separator
}

func (h *fnv64) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.bytes(b[:])
}

// addressSchema versions the address layout: bump it and every cached
// payload is naturally invalidated, because no new job can collide with
// an old key.
const addressSchema = "tdnuca-serve/v1"

// Address is the canonical content address of the job: FNV-1a over the
// normalized spec fields that determine the payload, in fixed order.
// Priority is deliberately absent (see its doc), and FragEvery enters as
// the period the harness runs with (0 for contiguous), the layout every
// cached address was computed with. Callers must normalize first; ID is
// the %016x rendering used in URLs.
func (j JobSpec) Address() uint64 {
	h := fnv64(fnvOffset64)
	h.str(addressSchema)
	h.str(j.Bench)
	h.str(j.Policy)
	h.str(j.Mesh)
	h.u64(math.Float64bits(j.Factor))
	h.u64(j.Seed)
	h.u64(uint64(int64(j.fragEvery())))
	h.str(j.Faults)
	h.u64(j.MaxCycles)
	if j.Trace {
		h.u64(1)
	} else {
		h.u64(0)
	}
	return uint64(h)
}

// ID renders the content address the way digests render everywhere in
// this repo: zero-padded lowercase hex.
func (j JobSpec) ID() string { return fmt.Sprintf("%016x", j.Address()) }

// job builds the harness job a normalized spec runs: the configuration
// its fields select, its canonical policy, its fault scenario (nil when
// healthy) and, for a traced spec, the default trace options.
func (j JobSpec) job() (harness.Job, error) {
	cfg := harness.DefaultConfig()
	if j.Mesh != "4x4" {
		w, h, err := arch.ParseMesh(j.Mesh)
		if err != nil {
			return harness.Job{}, err
		}
		cfg.Arch = arch.ScaledMeshConfig(w, h)
		cfg.Arch.NoCContention = true
	}
	cfg.Factor = workloads.Factor(j.Factor)
	cfg.Seed = j.Seed
	cfg.FragEvery = j.fragEvery()
	cfg.RT.MaxCycles = sim.Cycles(j.MaxCycles)
	job := harness.Job{Bench: j.Bench, Kind: harness.PolicyKind(j.Policy), Cfg: cfg}
	if j.Faults != "" {
		sc, err := faults.Parse(j.Faults)
		if err != nil {
			return harness.Job{}, err
		}
		job.Faults = sc
	}
	if j.Trace {
		job.Trace = &trace.Options{}
	}
	return job, nil
}

// fragEvery maps the normalized wire period to the harness's: -1
// (contiguous) is the allocator's 0.
func (j JobSpec) fragEvery() int {
	if j.FragEvery == -1 {
		return 0
	}
	return j.FragEvery
}

// validate runs the exact admission check the harness would: a job
// rejected here is precisely a job harness.Run would refuse.
func (j JobSpec) validate() error {
	job, err := j.job()
	if err != nil {
		return err
	}
	return job.Validate()
}

// Package tdnuca is the public API of the TD-NUCA reproduction: a
// simulator of a 16-core tiled chip multiprocessor with a NUCA last-level
// cache, a task dataflow runtime, and three NUCA management policies —
// S-NUCA (static interleaving), an enhanced R-NUCA (OS page-based), and
// TD-NUCA, the paper's runtime-driven hardware/software co-design.
//
// Quick start:
//
//	sys, _ := tdnuca.NewSystem(tdnuca.SystemConfig{Policy: tdnuca.TDNUCA})
//	buf := tdnuca.Region(0x100000, 64<<10)
//	sys.Spawn("producer", []tdnuca.Dep{{Range: buf, Mode: tdnuca.Out}}, nil)
//	sys.Spawn("consumer", []tdnuca.Dep{{Range: buf, Mode: tdnuca.In}}, nil)
//	sys.Wait()
//	fmt.Println(sys.Makespan(), sys.Metrics().LLCHitRatio())
//
// For the paper's experiments use RunExperiment / RunSuite and the
// Figure helpers, or the cmd/tdnuca-experiments command: -bench runs one
// workload under every policy (or one, with -policy), -fig and -all
// regenerate the tables, figures and sweeps as one batch, -faults runs
// the degraded suite.
package tdnuca

import (
	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/core"
	"tdnuca/internal/energy"
	"tdnuca/internal/harness"
	"tdnuca/internal/machine"
	"tdnuca/internal/sim"
	"tdnuca/internal/taskrt"
)

// Re-exported building blocks. These aliases expose the full method sets
// of the underlying implementations through the public package.
type (
	// Config holds the architectural parameters (Table I).
	Config = arch.Config
	// Mask is a tile bit-vector (BankMask / CoreMask).
	Mask = arch.Mask
	// Addr is a byte address.
	Addr = amath.Addr
	// Range is a half-open address range.
	Range = amath.Range
	// Dep is a task dependency: a range plus an access mode.
	Dep = taskrt.Dep
	// Mode is the dependency direction (In, Out, InOut).
	Mode = taskrt.Mode
	// Task is a node of the task dependency graph.
	Task = taskrt.Task
	// Exec is the execution context handed to task bodies.
	Exec = taskrt.Exec
	// RuntimeOptions tunes the runtime cost model.
	RuntimeOptions = taskrt.Options
	// Metrics is the machine's measurement snapshot.
	Metrics = machine.Metrics
	// EnergyParams holds the per-event energy constants.
	EnergyParams = energy.Params
	// EnergyTally is a run's dynamic energy breakdown.
	EnergyTally = energy.Tally
	// Result carries everything one experiment run measured.
	Result = harness.Result
	// Suite maps [benchmark][policy] to results.
	Suite = harness.Suite
	// ExperimentConfig parametrizes experiment runs.
	ExperimentConfig = harness.Config
	// PolicyKind selects the NUCA management scheme.
	PolicyKind = harness.PolicyKind
	// TDNUCAStats exposes the TD-NUCA manager counters.
	TDNUCAStats = core.ManagerStats

	// Cycles counts simulated clock cycles.
	Cycles = sim.Cycles
	// Machine is the simulated chip multiprocessor, exposed for custom
	// policies (flush primitives, address space, per-core caches).
	Machine = machine.Machine
	// CustomPolicy is the interface user-defined NUCA policies implement.
	CustomPolicy = machine.Policy
	// AccessContext describes the access a policy is deciding about.
	AccessContext = machine.AccessContext
	// Placement is a policy's mapping answer for one block.
	Placement = machine.Placement
)

// Placement kinds for custom policies.
const (
	PlaceInterleaved = machine.Interleaved
	PlaceSingleBank  = machine.SingleBank
	PlaceBankSet     = machine.BankSet
	PlaceBypass      = machine.Bypass
)

// Dependency modes (OpenMP depend clauses).
const (
	In    = taskrt.In
	Out   = taskrt.Out
	InOut = taskrt.InOut
)

// The NUCA management policies of the evaluation.
const (
	SNUCA        = harness.SNUCA
	RNUCA        = harness.RNUCA
	TDNUCA       = harness.TDNUCA
	TDBypassOnly = harness.TDBypassOnly
	TDNoISA      = harness.TDNoISA
)

// DefaultConfig returns the paper's Table I machine (32MB LLC).
func DefaultConfig() Config { return arch.DefaultConfig() }

// ScaledConfig returns the fast scaled machine (1MB LLC) the default
// experiments use.
func ScaledConfig() Config { return arch.ScaledConfig() }

// MeshConfig generalizes the Table I machine to a width x height mesh
// (up to 16x16 = 256 tiles): per-tile parameters stay Table I's,
// replication clusters become (w/2)x(h/2) quadrants when both
// dimensions are even, and memory controllers sit on the corner tiles.
// MeshConfig(4, 4) is exactly DefaultConfig.
func MeshConfig(width, height int) Config { return arch.MeshConfig(width, height) }

// ScaledMeshConfig is MeshConfig with the scaled per-tile cache sizes
// (ScaledConfig's), for fast experiments on big meshes.
func ScaledMeshConfig(width, height int) Config { return arch.ScaledMeshConfig(width, height) }

// DefaultRuntimeOptions returns the runtime cost model all experiments use.
func DefaultRuntimeOptions() RuntimeOptions { return taskrt.DefaultOptions() }

// Region builds an address range from start and size.
func Region(start Addr, size uint64) Range { return amath.NewRange(start, size) }

// SystemConfig configures NewSystem. Zero-value fields take defaults:
// the scaled machine, the TD-NUCA policy, seed 1, mild fragmentation.
type SystemConfig struct {
	Arch      *Config    // nil = ScaledConfig()
	Policy    PolicyKind // "" = TDNUCA
	Seed      uint64
	FragEvery int // physical page fragmentation period; 0 = contiguous
	Runtime   *RuntimeOptions

	// Custom, when non-nil, builds a user-defined NUCA policy for the
	// machine and overrides Policy. The returned policy receives every
	// private-cache miss and writeback through Place.
	Custom func(m *Machine) CustomPolicy
}

// newMachine builds the machine sc describes, with its zero-value
// fields defaulted, and returns it with the runtime options every
// runtime on it starts from.
func (sc SystemConfig) newMachine() (*machine.Machine, RuntimeOptions, error) {
	cfg := ScaledConfig()
	if sc.Arch != nil {
		cfg = *sc.Arch
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 1
	}
	opts := taskrt.DefaultOptions()
	if sc.Runtime != nil {
		opts = *sc.Runtime
	}
	m, err := machine.New(&cfg, sc.FragEvery, seed)
	return m, opts, err
}

// System is a ready-to-use simulated machine plus task runtime under one
// NUCA policy. It is not safe for concurrent use.
type System struct {
	cfg     Config
	m       *machine.Machine
	rt      *taskrt.Runtime
	manager *core.Manager // nil unless a TD-NUCA variant
	kind    PolicyKind
}

// NewSystem builds a system with the given configuration. A TD-NUCA
// variant needs a machine with RRT entries.
func NewSystem(sc SystemConfig) (*System, error) {
	m, opts, err := sc.newMachine()
	if err != nil {
		return nil, err
	}
	s := &System{cfg: *m.Cfg, m: m, kind: sc.Policy}
	var hooks taskrt.Hooks
	if sc.Custom != nil {
		p := sc.Custom(m)
		m.SetPolicy(p)
		s.kind = PolicyKind(p.Name())
	} else {
		if s.kind == "" {
			s.kind = TDNUCA
		}
		if hooks, s.manager, _, err = harness.InstallPolicy(s.kind, m, false); err != nil {
			return nil, err
		}
	}
	s.rt = taskrt.New(m, hooks, opts)
	return s, nil
}

// MustNewSystem is NewSystem but panics on error.
func MustNewSystem(sc SystemConfig) *System {
	s, err := NewSystem(sc)
	if err != nil {
		panic(err)
	}
	return s
}

// Policy returns the system's NUCA policy kind.
func (s *System) Policy() PolicyKind { return s.kind }

// Config returns the architectural configuration in use.
func (s *System) Config() Config { return s.cfg }

// Spawn creates a task with the given dependencies. A nil body defaults
// to the canonical streaming kernel that sweeps every dependency
// according to its mode.
func (s *System) Spawn(name string, deps []Dep, body func(e *Exec)) *Task {
	if body == nil {
		var tk *Task
		tk = s.rt.Spawn(name, deps, func(e *Exec) { e.SweepDeps(tk) })
		return tk
	}
	return s.rt.Spawn(name, deps, body)
}

// Wait is the global synchronization point: it runs the scheduler until
// every spawned task finished.
func (s *System) Wait() { s.rt.Wait() }

// WaitFor runs the scheduler only until the given task completes — not a
// barrier; use it for software-pipelined phase structures.
func (s *System) WaitFor(t *Task) { s.rt.WaitFor(t) }

// Makespan returns the cycle count at the last synchronization point.
func (s *System) Makespan() uint64 { return uint64(s.rt.Makespan()) }

// ExecutedTasks returns how many tasks have completed.
func (s *System) ExecutedTasks() int { return s.rt.ExecutedTasks() }

// Metrics returns the machine's measurement counters.
func (s *System) Metrics() Metrics { return s.m.Metrics() }

// Energy computes the run's dynamic energy under the given parameters
// (pass nil for the defaults).
func (s *System) Energy(p *EnergyParams) EnergyTally {
	params := energy.DefaultParams()
	if p != nil {
		params = *p
	}
	return energy.Compute(params, s.m.EnergyCounters())
}

// DataMovement returns the aggregate NoC bytes-times-hops (Fig. 12).
func (s *System) DataMovement() uint64 { return s.m.Net.ByteHops() }

// Violations returns coherence violations found by the functional
// checker (enable Config.CheckInvariants), or nil.
func (s *System) Violations() []string { return s.m.Violations() }

// TDStats returns the TD-NUCA manager counters; ok is false for systems
// running other policies.
func (s *System) TDStats() (TDNUCAStats, bool) {
	if s.manager == nil {
		return TDNUCAStats{}, false
	}
	return s.manager.Stats(), true
}

// RRTOccupancy returns the average and maximum RRT occupancy observed;
// ok is false for non-TD policies.
func (s *System) RRTOccupancy() (avg float64, max int, ok bool) {
	if s.manager == nil {
		return 0, 0, false
	}
	return s.manager.AvgRRTOccupancy(), s.manager.MaxRRTOccupancy(), true
}

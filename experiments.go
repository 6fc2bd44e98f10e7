package tdnuca

import (
	"context"

	"tdnuca/internal/faults"
	"tdnuca/internal/harness"
	"tdnuca/internal/stats"
	"tdnuca/internal/trace"
	"tdnuca/internal/workgen"
	"tdnuca/internal/workloads"
)

// Table is an aligned text table, the output form of every figure.
type Table = stats.Table

// WorkloadFactor scales the benchmark footprints; 1.0 reproduces
// Table II exactly, DefaultWorkloadFactor (1/32) matches ScaledConfig.
type WorkloadFactor = workloads.Factor

// DefaultWorkloadFactor is the scale used by the default experiments.
const DefaultWorkloadFactor = workloads.DefaultFactor

// Benchmarks lists the Table II benchmark names.
func Benchmarks() []string { return workloads.Names() }

// WorkloadParams is the knob set of the seeded workload generator: a
// seed plus DAG shape (depth, width, fan-out, reuse distance), per-task
// footprint, read/write-set overlap, per-task compute and barrier
// period. Its String renders the canonical "gen:seed=..." benchmark
// name, accepted everywhere a Table II name is (ExperimentJob.Bench, so
// single runs, suites, fault injection and tracing alike).
type WorkloadParams = workgen.Params

// DefaultWorkloadParams returns the generator's reference knob set.
func DefaultWorkloadParams() WorkloadParams { return workgen.Default() }

// ParseWorkloadName decodes a "gen:seed=..." generator name; knobs may
// appear in any order and subset, unset ones keep their defaults.
func ParseWorkloadName(name string) (WorkloadParams, error) { return workgen.Parse(name) }

// IsGeneratedName reports whether a benchmark name addresses the
// workload generator rather than the Table II set.
func IsGeneratedName(name string) bool { return workgen.IsName(name) }

// DefaultExperimentConfig returns the configuration every figure uses by
// default: the scaled machine and the 1/32 workload factor.
func DefaultExperimentConfig() ExperimentConfig { return harness.DefaultConfig() }

// TraceOptions sizes the event buffer and interval sampling of a traced
// run; the zero value selects the defaults.
type TraceOptions = trace.Options

// TraceData is everything one traced run produced: the event stream, the
// interval time series, the task slices and the cycle stack. Its
// WriteChrome-compatible form is written by WriteChromeTrace.
type TraceData = trace.Data

// CycleStack decomposes a run's aggregate core-cycles (NumCores times
// makespan) into compute, memory-system, NoC, DRAM, manager, runtime and
// idle components; see Result.Stack.
type CycleStack = trace.CycleStack

// WriteChromeTrace writes a traced run as Chrome trace_event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
var WriteChromeTrace = trace.WriteChrome

// ExperimentJob names one simulation: a benchmark under a policy with a
// configuration, plus an optional fault scenario (Faults) and optional
// tracing (Trace). RunExperiment runs one, RunExperiments a batch and
// RunSuite the Table II cross-product of one.
type ExperimentJob = harness.Job

// RunExperiment executes one job. Canceling ctx stops the run at its
// next task-dispatch boundary; a nil or never-canceled ctx runs it to
// completion. A traced job returns its trace in Result.Trace, a faulted
// one its fault counters in Result.Faults; tracing never moves the
// Result's digest.
func RunExperiment(ctx context.Context, job ExperimentJob) (Result, error) {
	return harness.Run(ctx, job)
}

// RunExperiments executes a batch of jobs on a worker pool (workers <= 0
// means one per CPU), returning results in job order; they are
// bit-for-bit identical to running each job alone.
func RunExperiments(jobs []ExperimentJob, workers int) ([]Result, error) {
	return harness.RunMany(jobs, workers)
}

// RunSuite executes every benchmark under each policy with job's
// configuration, fault scenario and tracing (its Bench and Kind are
// ignored), on a worker pool (workers <= 0 means one per CPU). The Suite
// — and its digest — is independent of the worker count.
func RunSuite(job ExperimentJob, workers int, kinds ...PolicyKind) (Suite, error) {
	return harness.RunSuite(job, workers, kinds...)
}

// SuiteDigest is the canonical behavioral fingerprint of a Suite; see
// DigestSuite.
type SuiteDigest = harness.SuiteDigest

// DigestSuite fingerprints a Suite: a stable FNV-1a hash per
// (benchmark, policy) over every counter the run produced, in canonical
// order, plus a combined hash. Identical digests mean identical
// simulated behavior; Result.Digest gives the per-run hash.
func DigestSuite(s Suite) SuiteDigest { return harness.DigestSuite(s) }

// ExperimentWorkers returns the default worker-pool size (one per CPU).
func ExperimentWorkers() int { return harness.DefaultWorkers() }

// The figure and table generators of the paper's evaluation section.
// Fig3 and Figs. 8-14 need a Suite with SNUCA, RNUCA and TDNUCA results;
// Fig15 additionally needs TDBypassOnly. Table II and the sweeps (RRT
// latency, runtime overhead, ablation, cluster size, resilience) plan
// their own runs: tdnuca-experiments -fig/-all regenerates them.
var (
	TableI = harness.TableI
	Fig3   = harness.Fig3
	Fig8   = harness.Fig8
	Fig9   = harness.Fig9
	Fig10  = harness.Fig10
	Fig11  = harness.Fig11
	Fig12  = harness.Fig12
	Fig13  = harness.Fig13
	Fig14  = harness.Fig14
	Fig15  = harness.Fig15

	// Sec. V-E design trade-off studies.
	OccupancyTable     = harness.OccupancyTable
	FlushOverheadTable = harness.FlushOverheadTable

	// CycleStackTable renders Result.Stack for every run of a Suite
	// (DESIGN.md §10).
	CycleStackTable = harness.CycleStackTable
)

// Fault injection (DESIGN.md §11): deterministic degraded-hardware
// scenarios — LLC bank retirement, NoC link failure, RRT capacity
// degradation — applied mid-run at task-dispatch boundaries.

// FaultScenario is an ordered schedule of hardware faults.
type FaultScenario = faults.Scenario

// FaultEvent is one scheduled fault of a FaultScenario.
type FaultEvent = faults.Event

// ParseFaults reads the -faults CLI syntax, e.g.
// "bank=3@20000,link=1-2@50000,rrt=8@80000" (and "rrt=core:cap@cycle"
// for a single core).
func ParseFaults(s string) (*FaultScenario, error) { return faults.Parse(s) }

// DefaultFaults returns the canonical severity-3 scenario for a
// configuration: one bank retired, one link killed, every RRT halved,
// with the choices drawn deterministically from the seed.
func DefaultFaults(cfg *Config, seed uint64) *FaultScenario { return faults.Default(cfg, seed) }

// FaultsAtSeverity returns the seeded scenario at a severity rung:
// 0 none, 1 bank retirement, 2 adds a link failure, 3 adds RRT halving.
func FaultsAtSeverity(cfg *Config, seed uint64, severity int) *FaultScenario {
	return faults.ScenarioAt(cfg, seed, severity)
}

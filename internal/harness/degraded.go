package harness

import (
	"fmt"
	"slices"
	"strings"

	"tdnuca/internal/faults"
	"tdnuca/internal/sim"
	"tdnuca/internal/workloads"
)

// Faulted runs: the same harness with a fault scenario attached
// (Job.Faults). The healthy Result layout — and therefore every healthy
// golden digest — is frozen, so a faulted Result carries its fault
// counters in Result.Faults and digests under faultedDigest.

// FaultReport is what fault injection applied during a run: the
// scenario in -faults syntax and the injector's counters.
type FaultReport struct {
	Scenario string
	faults.Stats
}

// faultedDigest is the layout a faulted Result digests under: the
// Result's fields, then the scenario and the fault counters — the same
// field walk, field for field, as the wrapper golden_faults.txt was
// pinned with.
type faultedDigest struct {
	Result
	FaultReport
}

// ResiliencePoint is one cell of a resilience sweep: a benchmark under a
// policy at one fault-severity level, with its slowdown and NoC-traffic
// inflation relative to the healthy (severity 0) run of the same pair.
type ResiliencePoint struct {
	Benchmark string
	Policy    PolicyKind
	Severity  int

	Cycles   sim.Cycles
	ByteHops uint64

	// MakespanX and TrafficX are this point's Cycles and ByteHops divided
	// by the severity-0 values — the degradation curves of the report.
	MakespanX float64
	TrafficX  float64

	Faults     faults.Stats
	Violations int
}

// ResilienceReport is a full sweep: every benchmark x policy x severity.
type ResilienceReport struct {
	Seed   uint64
	Points []ResiliencePoint
}

// resilienceMaxSeverity is the highest rung of faults.ScenarioAt's
// ladder the resilience study climbs.
const resilienceMaxSeverity = 3

// resilienceSweep plans the graceful-degradation study: every Table II
// benchmark under S-NUCA, R-NUCA and TD-NUCA at fault severities 0
// (healthy) through resilienceMaxSeverity (faults.ScenarioAt's ladder:
// bank retirement, then a dead link, then halved RRTs). Scenario
// choices are drawn from seed, so the whole report is deterministic and
// digest-stable.
func resilienceSweep(cfg Config, seed uint64) ([]Job, func([]Result) string, error) {
	var jobs []Job
	for _, bench := range workloads.Names() {
		for _, k := range coreKinds {
			for s := 0; s <= resilienceMaxSeverity; s++ {
				jobs = append(jobs, Job{
					Bench: bench, Kind: k, Cfg: cfg,
					Faults: faults.ScenarioAt(&cfg.Arch, seed, s),
				})
			}
		}
	}
	return jobs, func(results []Result) string { return resilience(seed, results).String() + "\n" }, nil
}

// resilience assembles the resilience study's report from its plan's
// results, each benchmark and policy's severities in ascending order.
func resilience(seed uint64, results []Result) *ResilienceReport {
	rep := &ResilienceReport{Seed: seed}
	for i, r := range results {
		sev := i % (resilienceMaxSeverity + 1)
		p := ResiliencePoint{
			Benchmark:  r.Benchmark,
			Policy:     r.Policy,
			Severity:   sev,
			Cycles:     r.Cycles,
			ByteHops:   r.DataMovement,
			Faults:     r.Faults.Stats,
			Violations: len(r.Violations),
		}
		if b := results[i-sev]; b.Cycles > 0 {
			p.MakespanX = float64(r.Cycles) / float64(b.Cycles)
			if b.DataMovement > 0 {
				p.TrafficX = float64(r.DataMovement) / float64(b.DataMovement)
			}
		}
		rep.Points = append(rep.Points, p)
	}
	return rep
}

// String renders the report as the resilience table of EXPERIMENTS.md:
// one block per benchmark, one row per policy x severity, with makespan
// and NoC-traffic ratios normalized to the healthy run.
func (rep *ResilienceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience sweep (fault seed %d): makespan and NoC traffic vs fault severity\n", rep.Seed)
	b.WriteString("severity ladder: 0 healthy; 1 +bank retired; 2 +link dead; 3 +RRTs halved\n\n")
	fmt.Fprintf(&b, "%-12s %-22s %4s %14s %10s %12s %10s %6s\n",
		"benchmark", "policy", "sev", "cycles", "makespan", "byte-hops", "traffic", "viol")
	points := slices.Clone(rep.Points)
	slices.SortStableFunc(points, func(p, q ResiliencePoint) int { return strings.Compare(p.Benchmark, q.Benchmark) })
	for _, p := range points {
		fmt.Fprintf(&b, "%-12s %-22s %4d %14d %9.3fx %12d %9.3fx %6d\n",
			p.Benchmark, p.Policy, p.Severity, uint64(p.Cycles),
			p.MakespanX, p.ByteHops, p.TrafficX, p.Violations)
	}
	return b.String()
}

package taskrt

import (
	"fmt"
	"strings"

	"tdnuca/internal/sim"
)

// Scheduler watchdog: a wedged task graph (a dependency cycle, a task
// whose inputs are never produced) or a runaway schedule must surface as
// a structured error naming the stuck tasks, never as an infinite hang or
// a bare panic string — the harness turns a *StallError into a failed
// run while other runs of a sweep keep going.

// StallKind says why the scheduler stopped making progress.
type StallKind uint8

const (
	// StallDeadlock: tasks are pending but none is ready — a dependency
	// cycle or a dependency no remaining task will ever satisfy.
	StallDeadlock StallKind = iota
	// StallBudget: the next dispatch would pass the configured MaxCycles
	// budget (Options.MaxCycles) — the schedule is running away.
	StallBudget
	// StallCanceled: Options.Canceled reported the run's context is gone
	// (harness.Run's context: RunMany's first-failure cancel, service
	// drain); the scheduler stops at the next dispatch boundary instead
	// of finishing a schedule nobody will read.
	StallCanceled
)

// String names the stall kind.
func (k StallKind) String() string {
	switch k {
	case StallBudget:
		return "cycle budget exceeded"
	case StallCanceled:
		return "canceled"
	}
	return "deadlock"
}

// maxStuckNamed caps how many stuck tasks a StallError names verbatim;
// the rest are only counted (same philosophy as the verifier's
// violations cap: the first few localize the bug).
const maxStuckNamed = 8

// StallError reports a scheduler stall. It is returned by WaitChecked
// and carried by the panic Wait raises for legacy callers.
type StallError struct {
	Kind    StallKind
	Pending int        // unfinished tasks at stall time
	Now     sim.Cycles // earliest time the stalled dispatch would have happened
	Limit   sim.Cycles // the budget, for StallBudget
	Stuck   []string   // up to maxStuckNamed descriptions of unfinished tasks
	More    int        // unfinished tasks beyond the named ones
}

// Error implements error.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "taskrt: %s: %d task(s) pending", e.Kind, e.Pending)
	switch e.Kind {
	case StallBudget:
		fmt.Fprintf(&b, ", next dispatch at cycle %d exceeds budget %d", e.Now, e.Limit)
	case StallCanceled:
		b.WriteString(", run canceled at a dispatch boundary")
	default:
		b.WriteString(" but none ready (dependency cycle or never-satisfied dependency)")
	}
	if len(e.Stuck) > 0 {
		fmt.Fprintf(&b, "; stuck: %s", strings.Join(e.Stuck, ", "))
		if e.More > 0 {
			fmt.Fprintf(&b, " … and %d more", e.More)
		}
	}
	return b.String()
}

// stallError assembles a StallError describing the current scheduler
// state: every unfinished task, the first maxStuckNamed of them named
// with their blocker counts.
func (rt *Runtime) stallError(kind StallKind, now sim.Cycles) *StallError {
	e := &StallError{Kind: kind, Pending: rt.pending, Now: now, Limit: rt.opts.MaxCycles}
	for _, t := range rt.tasks {
		if t.state == taskDone {
			continue
		}
		if len(e.Stuck) >= maxStuckNamed {
			e.More++
			continue
		}
		desc := fmt.Sprintf("%q(id %d, %d unmet dep task(s))", t.Name, t.ID, t.unsatisfied)
		if t.state == taskReady {
			desc = fmt.Sprintf("%q(id %d, ready)", t.Name, t.ID)
		}
		e.Stuck = append(e.Stuck, desc)
	}
	return e
}

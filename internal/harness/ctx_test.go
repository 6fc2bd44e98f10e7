package harness

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"tdnuca/internal/faults"
	"tdnuca/internal/taskrt"
)

// TestJobValidateErrorFormat pins the exact error format every validate
// branch must carry: "harness: <bench> under <kind>: <cause>". The
// resolveSpec branch regressed once (it returned the bare cause), so the
// full message is asserted, not just a substring.
func TestJobValidateErrorFormat(t *testing.T) {
	cfg := fastCfg()
	err := Job{Bench: "nope", Kind: SNUCA, Cfg: cfg}.Validate()
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	const want = `harness: nope under S-NUCA: harness: unknown benchmark "nope"`
	if err.Error() != want {
		t.Errorf("validate error = %q, want %q", err.Error(), want)
	}

	// Every other branch carries the same prefix.
	bad := cfg
	bad.Arch.ClusterWidth, bad.Arch.ClusterHeight = 3, 3
	noRRT := cfg
	noRRT.Arch.RRTEntries = 0
	badFaults := &faults.Scenario{Events: []faults.Event{{Kind: faults.BankRetire, Bank: cfg.Arch.NumCores}}}
	for name, j := range map[string]Job{
		"arch":   {Bench: "MD5", Kind: TDNUCA, Cfg: bad},
		"rrt":    {Bench: "MD5", Kind: TDNUCA, Cfg: noRRT},
		"faults": {Bench: "MD5", Kind: SNUCA, Cfg: cfg, Faults: badFaults},
	} {
		err := j.Validate()
		if err == nil {
			t.Fatalf("%s: invalid job accepted", name)
		}
		if !strings.HasPrefix(err.Error(), "harness: MD5 under ") {
			t.Errorf("%s: error %q lacks the \"harness: <bench> under <kind>\" prefix", name, err)
		}
	}
}

// TestRunNilAndBackgroundMatchRun runs one job without a context, under
// context.Background (neither installs the dispatch-boundary check) and
// under a cancelable context that is never canceled (which does): the
// check only observes, so all three digests agree.
func TestRunNilAndBackgroundMatchRun(t *testing.T) {
	j := Job{Bench: "MD5", Kind: SNUCA, Cfg: fastCfg()}
	want, err := Run(nil, j)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{"background": context.Background(), "cancelable": ctx} {
		got, err := Run(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest() != want.Digest() {
			t.Errorf("%s ctx digest %016x != nil ctx digest %016x", name, got.Digest(), want.Digest())
		}
	}
}

func TestRunPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Job{Bench: "MD5", Kind: SNUCA, Cfg: fastCfg()})
	if err == nil {
		t.Fatal("pre-canceled context accepted")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "harness: MD5 under S-NUCA") {
		t.Errorf("err = %v, missing job identification", err)
	}
}

// countdownCtx is a context whose Err flips to Canceled after n polls —
// a deterministic way to cancel exactly mid-run, at the n-th
// dispatch-boundary check, without racing a timer against the simulator.
// It embeds a cancelable context so its Done channel is non-nil: Run
// installs no check on a context that can never be canceled.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestRunMidRunCancelSurfacesStallCanceled(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &countdownCtx{Context: parent}
	ctx.n.Store(10) // survive the upfront check, cancel at a later dispatch
	_, err := Run(ctx, Job{Bench: "MD5", Kind: SNUCA, Cfg: fastCfg()})
	if err == nil {
		t.Fatal("mid-run cancellation returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
	var se *taskrt.StallError
	if !errors.As(err, &se) || se.Kind != taskrt.StallCanceled {
		t.Errorf("err = %v, want a wrapped StallCanceled StallError", err)
	}
	if !strings.Contains(err.Error(), "harness: MD5 under S-NUCA") {
		t.Errorf("err = %v, missing job identification", err)
	}
}

// TestRunManyCtxCancelsInFlightOnFirstFailure is the regression test for
// the old behavior where RunMany kept simulating every claimed job after
// another worker had already failed. Exactly one job can fail on its own
// merits (index 1, a one-cycle budget), so the reported error must be
// that job's StallError — deterministically, at any worker count — and
// never a cancellation echo from one of the aborted siblings.
func TestRunManyCtxCancelsInFlightOnFirstFailure(t *testing.T) {
	cfg := fastCfg()
	doomed := cfg
	doomed.RT.MaxCycles = 1 // trips the watchdog at the first dispatch
	jobs := []Job{
		{Bench: "MD5", Kind: SNUCA, Cfg: cfg},
		{Bench: "LU", Kind: SNUCA, Cfg: doomed},
	}
	for _, b := range []string{"Kmeans", "MD5", "LU", "Kmeans", "MD5", "LU"} {
		jobs = append(jobs, Job{Bench: b, Kind: TDNUCA, Cfg: cfg})
	}
	for _, workers := range []int{2, 4, 16} {
		before := runtime.NumGoroutine()
		_, err := RunMany(jobs, workers)
		if err == nil {
			t.Fatalf("workers=%d: doomed batch succeeded", workers)
		}
		var se *taskrt.StallError
		if !errors.As(err, &se) || se.Kind != taskrt.StallBudget {
			t.Errorf("workers=%d: err = %v, want the index-1 budget StallError", workers, err)
		}
		if errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v is a cancellation echo, want the originating failure", workers, err)
		}
		if !strings.Contains(err.Error(), "harness: LU under S-NUCA") {
			t.Errorf("workers=%d: err = %v does not identify the failing job", workers, err)
		}
		assertNoGoroutineLeak(t, before)
	}
}

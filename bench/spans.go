package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanLog keeps the traced pass's spans in memory and writes them at exit
// as Chrome trace_event JSON (chrome://tracing, Perfetto). tid separates
// lanes (the traced run, its twins, each serve client); args.id groups
// the spans of one run or serve job.
type spanLog struct {
	t0     time.Time
	mu     sync.Mutex
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the log started
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one complete span; it is safe for concurrent use.
func (l *spanLog) add(name, cat string, tid, id int, start time.Time, dur time.Duration, args map[string]any) {
	if args == nil {
		args = map[string]any{}
	}
	args["id"] = id
	ev := traceEvent{
		Name: name, Cat: cat, Ph: "X", Pid: 1, Tid: tid, Args: args,
		Ts:  float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		Dur: float64(dur.Nanoseconds()) / 1e3,
	}
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// write stores the spans at path, creating its directory.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": l.events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("bench: encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: trace directory: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("bench: writing spans: %w", err)
	}
	return nil
}

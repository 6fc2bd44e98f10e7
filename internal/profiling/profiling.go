// Package profiling wires Go's runtime/pprof profilers into the
// simulation CLI. It exposes -cpuprofile and -memprofile flags through
// Start/Stop so a hot-path regression can be diagnosed with the standard
// toolchain (`go tool pprof`) without rebuilding anything.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Session holds the open profile outputs between Start and Stop.
type Session struct {
	cpuFile *os.File
	memPath string
}

// Start begins CPU profiling to cpuPath (if non-empty) and remembers
// memPath for a heap snapshot at Stop. Empty paths disable the
// respective profile, so callers can pass flag values straight through.
func Start(cpuPath, memPath string) (*Session, error) {
	s := &Session{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		s.cpuFile = f
	}
	return s, nil
}

// Stop finishes the CPU profile and writes the allocation profile. It is
// safe to call on a session with neither profile enabled.
func (s *Session) Stop() error {
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		s.cpuFile = nil
	}
	if s.memPath != "" {
		f, err := os.Create(s.memPath)
		if err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the snapshot reflects live data
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
	}
	return nil
}

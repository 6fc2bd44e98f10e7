package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdnuca"
)

const (
	goldenDir = "../../internal/harness/testdata"
	// fastFactor is the golden files' workload factor (1/128).
	fastFactor = "0.0078125"
	// genGolden is the first pinned shape of golden_generated.txt, in
	// the short spelling a user types; -bench canonicalizes it.
	genGolden = "gen:seed=1,depth=6,width=12,bytes=131072"
)

// runCLI drives the command in process and returns its stdout, its
// stderr and its error.
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestBenchGeneratedMatchesGolden runs a generated workload under every
// policy with -digest: its S-NUCA, R-NUCA and TD-NUCA digest lines must
// be the pinned golden lines verbatim, which holds only if -bench hashes
// the canonical generator name.
func TestBenchGeneratedMatchesGolden(t *testing.T) {
	out, stderr, err := runCLI(t, "-bench", genGolden, "-digest", "-check", "-factor", fastFactor, "-workers", "2")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	golden := readGolden(t, "golden_generated.txt")
	found := 0
	for _, line := range strings.Split(out, "\n") {
		for _, kind := range corePolicies {
			if strings.Contains(line, "\t"+string(kind)+"\t") {
				found++
				if !strings.Contains(golden, line+"\n") {
					t.Errorf("digest line not in golden_generated.txt:\n%s", line)
				}
			}
		}
	}
	if found != len(corePolicies) {
		t.Errorf("found %d core-policy digest lines, want %d:\n%s", found, len(corePolicies), out)
	}
	for _, kind := range benchPolicies {
		if !strings.Contains(out, string(kind)+" ") {
			t.Errorf("comparison table has no %s row:\n%s", kind, out)
		}
	}
}

// TestBenchGeneratedOnBigMesh runs a generated workload on the
// generalized 8x8 mesh with the coherence checker on.
func TestBenchGeneratedOnBigMesh(t *testing.T) {
	out, stderr, err := runCLI(t, "-bench", "gen:seed=3,depth=4,width=8", "-mesh", "8x8", "-check", "-factor", fastFactor, "-workers", "2")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, "(8x8 mesh,") {
		t.Errorf("comparison table does not name the 8x8 mesh:\n%s", out)
	}
}

// TestBenchPolicyDigestMatchesGolden checks the single-run report's
// digest against the pinned suite digest of the same run.
func TestBenchPolicyDigestMatchesGolden(t *testing.T) {
	out, stderr, err := runCLI(t, "-bench", "LU", "-policy", "td", "-factor", fastFactor)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	var want string
	for _, line := range strings.Split(readGolden(t, "golden_suite.txt"), "\n") {
		if strings.HasPrefix(line, "LU\tTD-NUCA\t") {
			_, want, _ = strings.Cut(line, "digest=")
		}
	}
	if want == "" {
		t.Fatal("golden_suite.txt has no LU TD-NUCA line")
	}
	if !strings.Contains(out, "digest              "+want+" (access digest ") {
		t.Errorf("report does not carry golden digest %s:\n%s", want, out)
	}
	if !strings.Contains(out, "TD-NUCA decisions") {
		t.Errorf("TD-NUCA report lacks the manager block:\n%s", out)
	}
}

// TestBenchTrace writes a traced run's three artifacts; run itself
// validates the Chrome JSON and the cycle-stack sum.
func TestBenchTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	stdout, stderr, err := runCLI(t, "-bench", "LU", "-trace", out, "-interval", "5000", "-factor", fastFactor)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	for _, p := range []string{out, out + ".intervals.csv", out + ".intervals.json"} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (%v)", p, err)
		}
	}
	if !strings.Contains(stdout, "LU / TD-NUCA:") {
		t.Errorf("traced run is not the TD-NUCA default:\n%s", stdout)
	}
}

// TestUsageErrors: every combination of modes, no mode at all, and a
// -bench-only flag without -bench are usage errors, reported before any
// simulation runs. An unknown -fig name fails as an ordinary error.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-check"},
		{"-bench", "LU", "-faults", "default"},
		{"-bench", "LU", "-fig", "8"},
		{"-bench", "LU", "-all"},
		{"-faults", "default", "-fig", "8"},
		{"-faults", "default", "-all"},
		{"-bench", "LU", "-faults", "default", "-fig", "8"},
		{"-policy", "td"},
		{"-trace", "t.json"},
		{"-policy", "td", "-fig", "8"},
		{"-trace", "t.json", "-faults", "default"},
		{"-digest", "-policy", "td"},
		{"-fig", "8", "extra"},
		{"-no-such-flag"},
	} {
		_, _, err := runCLI(t, args...)
		if !errors.Is(err, errUsage) {
			t.Errorf("%q: got %v, want the usage error", args, err)
		}
	}
	if _, _, err := runCLI(t, "-fig", "ablatoin"); err == nil || errors.Is(err, errUsage) {
		t.Errorf("unknown -fig: got %v, want an unknown-figure error", err)
	}
}

// TestReportViolations: one violation anywhere in a suite is printed
// and fails the command.
func TestReportViolations(t *testing.T) {
	s := tdnuca.Suite{
		"LU": {
			tdnuca.SNUCA:  {Benchmark: "LU", Policy: tdnuca.SNUCA},
			tdnuca.TDNUCA: {Benchmark: "LU", Policy: tdnuca.TDNUCA, Violations: []string{"stale read"}},
		},
		"MD5": {tdnuca.SNUCA: {Benchmark: "MD5", Policy: tdnuca.SNUCA}},
	}
	var stderr bytes.Buffer
	if err := reportViolations(&stderr, s); !errors.Is(err, errViolations) {
		t.Errorf("got %v, want the violations error", err)
	}
	if got, want := stderr.String(), "COHERENCE VIOLATION LU/TD-NUCA: stale read\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
	delete(s, "LU")
	if err := reportViolations(&stderr, s); err != nil {
		t.Errorf("clean suite: %v", err)
	}
}

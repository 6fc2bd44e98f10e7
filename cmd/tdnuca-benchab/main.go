// Command tdnuca-benchab compares the working tree with a reference
// commit on the end-to-end benchmark (bench/run.sh --seconds 30
// --trace 0). It checks the reference out in a git worktree under
// .bench_build/, runs the two sides in alternating pairs on seeds 1, 2,
// ..., and prints each end-to-end metric's median and interquartile
// range per side, how many pairs the working tree won and a verdict
// against the metric's bound in BENCHMARK.json — the comparison
// bench/README.md describes.
//
// Usage, from the repository root (or `make bench-ab REF=... WORKLOAD=...`):
//
//	go run ./cmd/tdnuca-benchab -ref HEAD~1 -workload paper-suite -pairs 10
//
// A pair takes two benchmark invocations (about 2 x 35 s on a 2-vCPU
// host). Each invocation's standard error goes to
// .bench_build/ab-logs/; every result line is appended to
// .bench_build/ab-<workload>.jsonl.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// result is the last line bench/run.sh prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metricSpec is one BENCHMARK.json end-to-end metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// seconds is the run length bench/README.md's comparison uses.
const seconds = 30

func main() {
	ref := flag.String("ref", "", "reference commit (required)")
	workload := flag.String("workload", "paper-suite", "bench/run.sh workload")
	pairs := flag.Int("pairs", 10, "alternating pairs, one seed each")
	flag.Parse()
	if *ref == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: tdnuca-benchab -ref <commit> [-workload w] [-pairs n]")
		os.Exit(2)
	}
	if err := run(*ref, *workload, *pairs, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-benchab:", err)
		os.Exit(1)
	}
}

func run(ref, workload string, pairs int, out io.Writer) error {
	root, err := gitOut("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	sha, err := gitOut(root, "rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	refDir := filepath.Join(build, "ab-ref")
	if err := checkout(root, refDir, sha); err != nil {
		return err
	}
	specs, err := loadSpecs(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	logs := filepath.Join(build, "ab-logs")
	if err := os.MkdirAll(logs, 0o755); err != nil {
		return err
	}
	rec, err := os.OpenFile(filepath.Join(build, "ab-"+workload+".jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer rec.Close() // the success path closes it and checks the error

	samples := map[string]*[2][]float64{} // metric -> [ref, change] per pair
	failed := 0
	for i := 0; i < pairs; i++ {
		s := i + 1
		// Alternate which side runs first, so host drift within a pair
		// favours neither side.
		order := []int{1, 0}
		if i%2 == 1 {
			order = []int{0, 1}
		}
		var got [2]*result
		for _, side := range order {
			dir, name := refDir, "ref"
			if side == 1 {
				dir, name = root, "change"
			}
			args := []string{"bench/run.sh", "--workload", workload, "--seed", strconv.Itoa(s),
				"--seconds", strconv.Itoa(seconds), "--trace", "0"}
			r, err := invoke(dir, filepath.Join(logs, fmt.Sprintf("%s-%s-%d.log", name, workload, s)), args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pair %d %s: %v\n", i+1, name, err)
				failed++
			}
			if r == nil {
				continue
			}
			line, err := json.Marshal(struct {
				Side   string  `json:"side"`
				Seed   int     `json:"seed"`
				Result *result `json:"result"`
			}{name, s, r})
			if err == nil {
				_, err = fmt.Fprintf(rec, "%s\n", line)
			}
			if err != nil {
				return fmt.Errorf("recording %s: %w", rec.Name(), err)
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d %-6s seed %d: correct=%v failed=%d\n", i+1, pairs, name, s, r.Correct, r.Failed)
			got[side] = r
		}
		if got[0] == nil || got[1] == nil {
			continue // a pair with a missing side is not a pair
		}
		for _, k := range sortedKeys(got[0].Metrics) {
			w, ok := got[1].Metrics[k]
			if !ok {
				continue
			}
			if samples[k] == nil {
				samples[k] = &[2][]float64{}
			}
			samples[k][0] = append(samples[k][0], got[0].Metrics[k].Value)
			samples[k][1] = append(samples[k][1], w.Value)
		}
	}

	fmt.Fprintf(out, "workload %s: change = working tree, ref = %.12s; --seconds %d; %d pairs, %d failed invocations\n",
		workload, sha, seconds, pairs, failed)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tbound\tref median\tref IQR\tchange median\tchange IQR\tchange/ref\twins\tverdict\t")
	for _, k := range sortedKeys(samples) {
		spec, ok := specs[k[strings.LastIndex(k, "/")+1:]]
		if !ok {
			continue
		}
		c := compare(spec, samples[k][0], samples[k][1])
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.4g\t%.3g\t%.4g\t%.3g\t%.3f\t%d/%d\t%s\t\n", k, spec.Unit, spec.Bound,
			c.refMed, c.refIQR, c.chgMed, c.chgIQR, c.chgMed/c.refMed, c.wins, c.n, c.verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := rec.Close(); err != nil {
		return fmt.Errorf("recording %s: %w", rec.Name(), err)
	}
	if failed > 0 {
		return fmt.Errorf("%d invocations failed; see %s", failed, logs)
	}
	return nil
}

// comparison is one metric's A/B summary.
type comparison struct {
	n, wins        int
	refMed, refIQR float64
	chgMed, chgIQR float64
	verdict        string
}

// compare summarizes one metric over paired samples (ref[i] and chg[i]
// ran on the same seed). The verdict follows bench/README.md: a metric
// whose reference spread (IQR over median) exceeds its bound is
// unresolved; a change median worse than the reference's by more than
// the bound is a regression; a gain needs at least 10 pairs, at least
// 9 wins in 10 and a gap between the medians wider than the
// reference's IQR.
func compare(spec metricSpec, ref, chg []float64) comparison {
	c := comparison{n: len(ref)}
	var q1, q3 float64
	q1, c.refMed, q3 = quartiles(ref)
	c.refIQR = q3 - q1
	q1, c.chgMed, q3 = quartiles(chg)
	c.chgIQR = q3 - q1
	sign := 1.0 // positive gap = change better
	if spec.Better == "higher" {
		sign = -1
	}
	for i := range ref {
		if sign*(ref[i]-chg[i]) > 0 {
			c.wins++
		}
	}
	gap := sign * (c.refMed - c.chgMed)
	worse := 0.0
	if c.refMed != 0 {
		worse = -gap / math.Abs(c.refMed)
	}
	gain := c.n >= 10 && c.wins*10 >= 9*c.n && gap > c.refIQR
	switch {
	case c.refMed != 0 && c.refIQR/math.Abs(c.refMed) > spec.Bound:
		c.verdict = "unresolved: ref spread over bound"
	case worse > spec.Bound:
		c.verdict = fmt.Sprintf("REGRESSION: %+.1f%% over the %.0f%% bound", 100*worse, 100*spec.Bound)
	case gain:
		c.verdict = fmt.Sprintf("gain %.1f%%", 100*gap/math.Abs(c.refMed))
	default:
		c.verdict = "within bound"
	}
	return c
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadSpecs(path string) (map[string]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	specs := map[string]metricSpec{}
	for _, m := range f.EndToEnd {
		specs[m.Name] = m
	}
	return specs, nil
}

// checkout puts the reference commit in a detached git worktree at dir,
// creating the worktree on first use and moving it to sha afterwards.
func checkout(root, dir, sha string) error {
	if _, err := os.Stat(dir); err == nil {
		// Without its .git file the directory is not a worktree, and git
		// would act on the enclosing repository instead.
		if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil {
			return fmt.Errorf("%s exists but is not a git worktree; remove it", dir)
		}
		_, err := gitOut(dir, "checkout", "--quiet", "--detach", sha)
		return err
	}
	_, err := gitOut(root, "worktree", "add", "--quiet", "--detach", dir, sha)
	return err
}

// invoke runs bench/run.sh in dir with its standard error in logPath and
// parses the result line. A run whose checks failed returns both its
// result and an error.
func invoke(dir, logPath string, args []string) (*result, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	var stdout bytes.Buffer
	cmd := exec.Command("bash", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, logf
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%v (log: %s)", runErr, logPath)
		}
		return nil, fmt.Errorf("no result line: %v (log: %s)", err, logPath)
	}
	if runErr != nil || !r.Correct || r.Failed > 0 {
		return &r, fmt.Errorf("checks failed: %d of %d (log: %s)", r.Failed, r.Attempted, logPath)
	}
	return &r, nil
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

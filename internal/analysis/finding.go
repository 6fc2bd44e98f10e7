package analysis

import (
	"fmt"
	"sort"
)

// Finding is one rule violation, addressed by root-relative position.
// The JSON field names are the stable schema consumed by tooling that
// trends finding counts (documented in EXPERIMENTS.md).
type Finding struct {
	Pass    string `json:"pass"`           // "determinism", "hotpath", "units", "directive"
	Rule    string `json:"rule"`           // "maprange", "wallclock", "mathrand", "goroutine", "staleallow", "alloc", "latency", "stale", "syntax"
	File    string `json:"file"`           // module-root-relative path
	Line    int    `json:"line"`           // 1-based
	Col     int    `json:"col"`            // 1-based
	Func    string `json:"func,omitempty"` // enclosing function, when known
	Message string `json:"message"`
}

// String renders the finding in the file:line:col compiler format.
func (f Finding) String() string {
	loc := fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
	if f.Func != "" {
		return fmt.Sprintf("%s: %s/%s: %s (in %s)", loc, f.Pass, f.Rule, f.Message, f.Func)
	}
	return fmt.Sprintf("%s: %s/%s: %s", loc, f.Pass, f.Rule, f.Message)
}

// Report is the full analyzer output: the findings plus per-pass counts,
// serialized verbatim by tdnuca-lint -json.
type Report struct {
	Version  int            `json:"version"`
	Module   string         `json:"module"`
	Findings []Finding      `json:"findings"`
	Counts   map[string]int `json:"counts"`
}

func newReport(module string, findings []Finding) *Report {
	if findings == nil {
		findings = []Finding{} // a clean report serializes as [], not null
	}
	sortFindings(findings)
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Pass]++
	}
	return &Report{Version: 1, Module: module, Findings: findings, Counts: counts}
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Rule < b.Rule
	})
}

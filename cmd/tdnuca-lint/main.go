// Command tdnuca-lint runs the internal/analysis static-analysis suite
// over the module: the determinism, hot-path allocation and config/units
// passes described in DESIGN.md §9.
//
// Usage:
//
//	tdnuca-lint [-root dir] [-json] [-budget duration]
//
// -budget bounds the analyzer's own wall time (the lint-timing CI smoke):
// the suite reloads and re-checks the whole module from source, so a
// pathological regression in the loader or a pass shows up as runtime
// long before it shows up as pain.
//
// Exit status: 0 when clean, 1 when findings exist or the budget is
// exceeded, 2 on a load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"tdnuca/internal/analysis"
)

func main() {
	root := flag.String("root", ".", "module root to analyze")
	jsonOut := flag.Bool("json", false, "emit the report as JSON (schema in EXPERIMENTS.md)")
	budget := flag.Duration("budget", 0, "fail if the analysis takes longer than this (0 = no limit)")
	flag.Parse()

	start := time.Now()
	rep, err := analysis.Run(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tdnuca-lint: %v\n", err)
		os.Exit(2)
	}
	elapsed := time.Since(start)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "tdnuca-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Println(f.String())
		}
		if len(rep.Findings) > 0 {
			passes := make([]string, 0, len(rep.Counts))
			for p := range rep.Counts {
				passes = append(passes, p)
			}
			sort.Strings(passes)
			fmt.Printf("tdnuca-lint: %d finding(s):", len(rep.Findings))
			for _, p := range passes {
				fmt.Printf(" %s=%d", p, rep.Counts[p])
			}
			fmt.Println()
		}
	}
	overBudget := *budget > 0 && elapsed > *budget
	if overBudget {
		fmt.Fprintf(os.Stderr, "tdnuca-lint: analysis took %v, over the %v budget\n",
			elapsed.Round(time.Millisecond), *budget)
	}
	if len(rep.Findings) > 0 || overBudget {
		os.Exit(1)
	}
}

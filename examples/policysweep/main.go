// Policysweep: run the Jacobi benchmark under every policy, then sweep
// the RRT latency from 0 to 4 cycles under TD-NUCA — the Sec. V-E design
// trade-off study in miniature.
package main

import (
	"context"
	"fmt"
	"log"

	"tdnuca"
)

func main() {
	cfg := tdnuca.DefaultExperimentConfig()

	fmt.Println("Jacobi under each policy:")
	var base uint64
	for _, kind := range []tdnuca.PolicyKind{
		tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDBypassOnly, tdnuca.TDNUCA,
	} {
		r, err := tdnuca.RunExperiment(context.Background(), tdnuca.ExperimentJob{Bench: "Jacobi", Kind: kind, Cfg: cfg})
		if err != nil {
			log.Fatal(err)
		}
		if kind == tdnuca.SNUCA {
			base = uint64(r.Cycles)
		}
		fmt.Printf("  %-22s %9d cycles (%.2fx), LLC accesses %8d, bypassed %8d\n",
			kind, r.Cycles, float64(base)/float64(r.Cycles),
			r.Metrics.LLCAccesses, r.Metrics.BypassAccesses)
	}

	fmt.Println("\nRRT latency sweep (TD-NUCA, Jacobi):")
	var ideal uint64
	for lat := 0; lat <= 4; lat++ {
		c := cfg
		c.Arch.RRTLatency = lat
		r, err := tdnuca.RunExperiment(context.Background(), tdnuca.ExperimentJob{Bench: "Jacobi", Kind: tdnuca.TDNUCA, Cfg: c})
		if err != nil {
			log.Fatal(err)
		}
		if lat == 0 {
			ideal = uint64(r.Cycles)
		}
		fmt.Printf("  %d cycle(s): %9d cycles (+%.2f%% vs ideal RRT)\n",
			lat, r.Cycles, 100*(float64(r.Cycles)/float64(ideal)-1))
	}
}

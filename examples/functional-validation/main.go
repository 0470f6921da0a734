// Functional validation: plans the configuration once (predicted
// weights, Algorithm 1 partitions), then runs the real shallow-water
// mini-WRF — actual numerics, halo exchanges and nesting over the
// goroutine MPI runtime — under both strategies on that plan's
// partitions, and shows that they compute the same weather while the
// concurrent strategy finishes in less virtual time. This is the
// end-to-end proof that the paper's restructuring changes the schedule,
// not the forecast.
package main

import (
	"fmt"
	"log"

	"nestwrf"
)

func main() {
	cfg := nestwrf.NewDomain("parent", 64, 64)
	cfg.AddChild("nest-east", 60, 48, 3, 2, 2)
	cfg.AddChild("nest-west", 48, 36, 3, 30, 30)

	plan, err := nestwrf.Plan(cfg, nestwrf.Options{
		Machine: nestwrf.BlueGeneL(), Ranks: 32, Strategy: nestwrf.StrategyConcurrent,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Per-message latency chosen so communication matters relative to
	// the small per-rank tiles — the sub-linear-scaling regime in which
	// the paper's strategy pays off.
	opts := nestwrf.FunctionalOptions{
		Ranks:     plan.Ranks,
		Steps:     4,
		PointCost: 1e-6,
		TM:        nestwrf.AlphaBeta{Alpha: 5e-5, Beta: 1e-9},
		Rects:     plan.Rects,
	}

	opts.Strategy = nestwrf.StrategySequential
	seq, err := nestwrf.RunFunctional(cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	opts.Strategy = nestwrf.StrategyConcurrent
	con, err := nestwrf.RunFunctional(cfg, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("functional mini-WRF: 64x64 parent, two nests, 32 ranks, 4 steps")
	for i, c := range cfg.Children {
		fmt.Printf("  %s: predicted weight %.3f, partition %v\n", c.Name, plan.Weights[i], plan.Rects[i])
	}
	fmt.Printf("%-22s %-14s %-14s\n", "", "sequential", "concurrent")
	fmt.Printf("%-22s %-14.6f %-14.6f\n", "virtual makespan (s)", seq.MaxClock, con.MaxClock)
	fmt.Printf("%-22s %-14.6f %-14.6f\n", "avg MPI wait (s)", seq.AvgWait, con.AvgWait)

	fmt.Printf("\nfield agreement (max abs difference across all cells):\n")
	fmt.Printf("  parent: %.3g\n", seq.Parent.MaxDiff(con.Parent))
	for i := range seq.Nests {
		fmt.Printf("  %s: %.3g\n", cfg.Children[i].Name, seq.Nests[i].MaxDiff(con.Nests[i]))
	}
	fmt.Printf("\nparent water mass: %.9f (sequential) vs %.9f (concurrent)\n",
		seq.Parent.Mass(), con.Parent.Mass())

	gain := 100 * (seq.MaxClock - con.MaxClock) / seq.MaxClock
	fmt.Printf("\nsame forecast, %.1f%% less virtual time with concurrent siblings\n", gain)
}

// Quickstart: plan and evaluate concurrent nested simulations in a few
// lines — the minimal end-to-end use of the nestwrf public API.
package main

import (
	"fmt"
	"log"

	"nestwrf"
)

func main() {
	// Two tropical depressions tracked inside a Pacific parent domain
	// (the scenario of the paper's Fig. 1): a 24 km parent with two 8 km
	// nests, i.e. a refinement ratio of 3.
	cfg := nestwrf.NewDomain("pacific", 286, 307)
	cfg.AddChild("depression-east", 394, 418, 3, 5, 5)
	cfg.AddChild("depression-west", 313, 337, 3, 140, 150)

	machine := nestwrf.BlueGeneL()
	const ranks = 1024 // one BG/L rack in virtual-node mode

	// Step 1: the paper's pipeline — predict sibling execution times,
	// partition the 32x32 processor grid with Algorithm 1, and assess
	// the torus mappings.
	opt := nestwrf.Options{
		Machine:  machine,
		Ranks:    ranks,
		Strategy: nestwrf.StrategyConcurrent,
		MapKind:  nestwrf.MapMultiLevel,
		Alloc:    nestwrf.AllocPredicted,
	}
	plan, err := nestwrf.Plan(cfg, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processor grid %dx%d\n", plan.Px, plan.Py)
	for i, c := range cfg.Children {
		fmt.Printf("  %-16s predicted share %.2f -> partition %v\n",
			c.Name, plan.Weights[i], plan.Rects[i])
	}
	fmt.Printf("  avg hops: oblivious %.2f vs multi-level fold %.2f\n\n",
		plan.Mapping["oblivious"].OverallAvgHops,
		plan.Mapping["multilevel"].OverallAvgHops)

	// Step 2: simulate both strategies and compare, with the
	// topology-aware multi-level mapping for the concurrent run.
	cmp, err := nestwrf.Compare(cfg, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("default WRF (sequential nests): %.3f s/iteration\n", cmp.Default.IterTime)
	fmt.Printf("concurrent siblings:            %.3f s/iteration\n", cmp.Concurrent.IterTime)
	fmt.Printf("improvement: %.1f%% (MPI_Wait: %.1f%%)\n",
		cmp.ImprovementPct, cmp.WaitImprovementPct)
}

// Mapping explorer: visualizes the 2D-to-3D torus mappings of the
// paper's Section 3.3 on the Figs. 5-6 example (32 ranks, two sibling
// partitions, a 4x4x2 torus) and then measures their effect at
// production scale.
package main

import (
	"fmt"
	"log"

	"nestwrf"
)

func main() {
	// Part 1: the paper's illustration — which rank sits on which torus
	// node under each mapping. We reproduce it through the public Plan
	// API at 32 ranks with two equal siblings.
	cfg := nestwrf.NewDomain("illustration", 96, 48)
	cfg.AddChild("sibling1", 144, 144, 3, 0, 0)
	cfg.AddChild("sibling2", 144, 144, 3, 48, 0)

	plan, err := nestwrf.Plan(cfg, nestwrf.Options{
		Machine: nestwrf.BlueGeneL(), Ranks: 32, Strategy: nestwrf.StrategyConcurrent,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("32 ranks form an %dx%d grid; siblings get %v and %v\n\n",
		plan.Px, plan.Py, plan.Rects[0], plan.Rects[1])
	fmt.Println("average torus hops between neighbouring ranks (4x4x2 torus):")
	fmt.Printf("%-12s %-8s %-8s %-8s\n", "mapping", "parent", "sib1", "sib2")
	for _, name := range []string{"oblivious", "txyz", "partition", "multilevel"} {
		rep, ok := plan.Mapping[name]
		if !ok {
			continue
		}
		fmt.Printf("%-12s %-8.2f %-8.2f %-8.2f\n",
			name, rep.ParentAvgHops, rep.SiblingAvgHops[0], rep.SiblingAvgHops[1])
	}
	fmt.Println("\nthe multi-level fold keeps every neighbour pair 1 hop apart —")
	fmt.Println("'this universal mapping scheme benefits both the nested simulations")
	fmt.Println("and the parent simulation' (Section 3.3.2)")

	// Draw the actual placements, the textual counterpart of Figs. 5-6.
	for _, kind := range []struct {
		name string
		k    nestwrf.MapKind
	}{
		{"oblivious (Fig. 5b)", nestwrf.MapOblivious},
		{"partition (Fig. 6a)", nestwrf.MapPartition},
		{"multi-level (Fig. 6b)", nestwrf.MapMultiLevel},
	} {
		art, err := nestwrf.RenderMapping(kind.k, nestwrf.BlueGeneL(), 32, plan.Rects)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n%s", kind.name, art)
	}

	// Part 2: what the mappings buy at production scale (Table 4).
	prod := nestwrf.NewDomain("production", 286, 307)
	prod.AddChild("sibling1", 394, 418, 3, 5, 5)
	prod.AddChild("sibling2", 232, 202, 3, 150, 10)
	prod.AddChild("sibling3", 232, 256, 3, 10, 160)
	prod.AddChild("sibling4", 313, 337, 3, 140, 150)

	fmt.Println("\nper-iteration times on 1024 BG/L cores (Table 4 of the paper):")
	fmt.Printf("%-12s %-10s %-10s %-10s\n", "mapping", "iter (s)", "wait (s)", "avg hops")
	for _, mk := range []struct {
		name string
		kind nestwrf.MapKind
	}{
		{"oblivious", nestwrf.MapOblivious},
		{"txyz", nestwrf.MapTXYZ},
		{"partition", nestwrf.MapPartition},
		{"multilevel", nestwrf.MapMultiLevel},
	} {
		res, err := nestwrf.Simulate(prod, nestwrf.Options{
			Machine:  nestwrf.BlueGeneL(),
			Ranks:    1024,
			Strategy: nestwrf.StrategyConcurrent,
			MapKind:  mk.kind,
			Alloc:    nestwrf.AllocPredicted,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %-10.3f %-10.3f %-10.2f\n", mk.name, res.IterTime, res.WaitAvg, res.HopsAvg)
	}
}

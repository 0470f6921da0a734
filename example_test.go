package nestwrf_test

import (
	"fmt"

	"nestwrf"
)

// ExamplePlan shows the paper's pipeline: predict sibling execution
// times, partition the processor grid with Algorithm 1, and inspect the
// mapping quality. All timings are deterministic virtual times, so the
// output is stable.
func ExamplePlan() {
	cfg := nestwrf.NewDomain("pacific", 286, 307)
	cfg.AddChild("east", 394, 418, 3, 5, 5)
	cfg.AddChild("west", 313, 337, 3, 140, 150)

	plan, err := nestwrf.Plan(cfg, nestwrf.Options{
		Machine: nestwrf.BlueGeneL(), Ranks: 1024, Strategy: nestwrf.StrategyConcurrent,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("grid %dx%d\n", plan.Px, plan.Py)
	for i, c := range cfg.Children {
		fmt.Printf("%s: share %.2f, partition %d cores\n",
			c.Name, plan.Weights[i], plan.Rects[i].Area())
	}
	// Output:
	// grid 32x32
	// east: share 0.60, partition 608 cores
	// west: share 0.40, partition 416 cores
}

// ExampleCompare contrasts WRF's default sequential nest execution with
// the paper's concurrent strategy on one BG/L rack.
func ExampleCompare() {
	cfg := nestwrf.NewDomain("pacific", 286, 307)
	cfg.AddChild("east", 394, 418, 3, 5, 5)
	cfg.AddChild("west", 313, 337, 3, 140, 150)

	cmp, err := nestwrf.Compare(cfg, nestwrf.Options{
		Machine: nestwrf.BlueGeneL(),
		Ranks:   1024,
		MapKind: nestwrf.MapMultiLevel,
		Alloc:   nestwrf.AllocPredicted,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("concurrent wins: %v\n", cmp.Concurrent.IterTime < cmp.Default.IterTime)
	fmt.Printf("siblings ran on %d and %d cores\n",
		cmp.Concurrent.Siblings[0].Ranks, cmp.Concurrent.Siblings[1].Ranks)
	// Output:
	// concurrent wins: true
	// siblings ran on 608 and 416 cores
}

// ExampleRunFunctional runs the real shallow-water mini-WRF: both
// strategies compute the same forecast.
func ExampleRunFunctional() {
	cfg := nestwrf.NewDomain("parent", 48, 48)
	cfg.AddChild("nest", 36, 36, 3, 4, 4)

	opt := nestwrf.FunctionalOptions{Ranks: 8, Steps: 2}
	opt.Strategy = nestwrf.StrategySequential
	seq, err := nestwrf.RunFunctional(cfg, opt)
	if err != nil {
		panic(err)
	}
	opt.Strategy = nestwrf.StrategyConcurrent
	con, err := nestwrf.RunFunctional(cfg, opt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("fields agree within 1e-9: %v\n", seq.Parent.MaxDiff(con.Parent) < 1e-9)
	// Output:
	// fields agree within 1e-9: true
}

// ExampleSteer lets measured phase times correct a deliberately bad
// (equal-split) allocation.
func ExampleSteer() {
	cfg := nestwrf.NewDomain("pacific", 286, 307)
	cfg.AddChild("big", 394, 418, 3, 5, 5)
	cfg.AddChild("small", 232, 202, 3, 150, 10)

	out, err := nestwrf.Steer(cfg, nestwrf.Options{
		Machine: nestwrf.BlueGeneL(),
		Ranks:   1024,
		Alloc:   nestwrf.AllocEqual,
	}, 5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("steering improved the run: %v\n", out.Final.IterTime <= out.Rounds[0].IterTime)
	// Output:
	// steering improved the run: true
}

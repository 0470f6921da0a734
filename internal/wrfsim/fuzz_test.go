package wrfsim

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/solver"
	"nestwrf/internal/vtopo"
)

// fuzzInput draws one small functional run from seed: a parent of at
// most 48x48 points with up to three siblings (a footprint now and then
// one cell past the parent's edge), at most 24 ranks, 1–2 steps, output
// every step in half the draws, either strategy, and in a third of them
// explicit rectangles: Algorithm 1's partition of random weights on the
// run's process grid.
func fuzzInput(seed uint64) (*nest.Domain, Options) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	root := nest.Root("parent", 4+rng.IntN(45), 4+rng.IntN(45))
	kids := rng.IntN(4)
	for i := 0; i < kids; i++ {
		r := 1 + rng.IntN(3)
		fx, fy := 1+rng.IntN(root.NX), 1+rng.IntN(root.NY)
		slack := 1
		if rng.IntN(16) == 0 {
			slack = 2 // the offset may put the footprint past the edge
		}
		root.AddChild("nest", fx*r-rng.IntN(r), fy*r-rng.IntN(r), r,
			rng.IntN(root.NX-fx+slack), rng.IntN(root.NY-fy+slack))
	}
	opt := Options{
		Ranks:     1 + rng.IntN(24),
		Steps:     1 + rng.IntN(2),
		Strategy:  Strategy(rng.IntN(2)),
		PointCost: 1e-7 * float64(1+rng.IntN(10)),
		TM:        mpi.AlphaBeta{Alpha: 1e-6 * float64(1+rng.IntN(50)), Beta: 1e-9},
	}
	if rng.IntN(2) == 0 {
		opt.OutputEverySteps = 1
	}
	if kids > 0 && rng.IntN(3) == 0 {
		weights := make([]float64, kids)
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
		}
		// Where Partition finds the grid too small for the siblings,
		// Rects stay nil and the run takes its default partition.
		if g, err := machine.GridFor(opt.Ranks); err == nil {
			opt.Rects, _ = alloc.Partition(weights, g.Px, g.Py)
		}
	}
	return root, opt
}

// runErrors are the typed errors a functional run may answer a drawn
// input with; a deadlock is not among them.
var runErrors = []error{
	nest.ErrBadSize, nest.ErrBadRatio, nest.ErrOutOfBound,
	ErrTooDeep, ErrBadSteps, driver.ErrBadOption,
	machine.ErrBadCores, solver.ErrBadTile, solver.ErrBadDecomp,
	alloc.ErrNoDomains, alloc.ErrBadGrid, alloc.ErrTooManyDomains,
	alloc.ErrBadWeight, alloc.ErrInfeasible,
	vtopo.ErrBadGrid, vtopo.ErrBadRect,
}

// runWithin runs one input, failing the test if it has not returned
// after a minute.
func runWithin(t *testing.T, cfg *nest.Domain, opt Options) (*Output, error) {
	type result struct {
		out *Output
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := Run(cfg, opt)
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-time.After(time.Minute):
		t.Fatalf("Run(%v, %+v) hung", cfg, opt)
		return nil, nil
	}
}

// FuzzFunctionalRun drives small random trees through the functional
// entry point. Every input must return a typed error or a result, never
// panic, hang or deadlock; a result has finite, non-negative clocks and
// waits with MaxWait >= AvgWait, finite fields, no pool drops, and the
// same makespan bits when run again.
func FuzzFunctionalRun(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg, opt := fuzzInput(seed)
		out, err := runWithin(t, cfg, opt)
		if err != nil {
			for _, want := range runErrors {
				if errors.Is(err, want) && !errors.Is(err, mpi.ErrDeadlock) {
					return
				}
			}
			t.Fatalf("%v, %+v: untyped error %v", cfg, opt, err)
		}
		nonNegative := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 }
		if !nonNegative(out.MaxClock) || !nonNegative(out.AvgWait) || !nonNegative(out.MaxWait) || out.MaxWait < out.AvgWait {
			t.Fatalf("%v, %+v: clock %v, avg wait %v, max wait %v", cfg, opt, out.MaxClock, out.AvgWait, out.MaxWait)
		}
		for i, st := range append([]*solver.State{out.Parent}, out.Nests...) {
			if st == nil {
				t.Fatalf("%v, %+v: domain %d has no state", cfg, opt, i)
			}
			for _, field := range [][]float64{st.H, st.HU, st.HV} {
				for j, v := range field {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%v, %+v: domain %d cell %d is %v", cfg, opt, i, j, v)
					}
				}
			}
		}
		if out.Pools.Drops != 0 {
			t.Fatalf("%v, %+v: %d pool drops", cfg, opt, out.Pools.Drops)
		}
		again, err := runWithin(t, cfg, opt)
		if err != nil {
			t.Fatalf("%v, %+v: second run failed: %v", cfg, opt, err)
		}
		if math.Float64bits(again.MaxClock) != math.Float64bits(out.MaxClock) {
			t.Fatalf("%v, %+v: makespan %v, then %v", cfg, opt, out.MaxClock, again.MaxClock)
		}
	})
}

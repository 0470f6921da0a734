package driver

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// fuzzInput draws one small run from seed: a parent of at most 64x64
// points with up to three siblings, each with a child of its own now
// and then (a footprint now and then one cell past its parent's edge);
// up to 65 ranks; every strategy, mapping, allocation policy and I/O
// mode, and now and then a value just outside each (-1 ranks among
// them); output every 1–3 steps in half the draws; contention off in a
// quarter; and now and then a machine whose network netsim refuses.
func fuzzInput(seed uint64) (*nest.Domain, Options) {
	rng := rand.New(rand.NewPCG(seed, 0xd21e))
	root := nest.Root("parent", 4+rng.IntN(61), 4+rng.IntN(61))
	addNest := func(parent *nest.Domain) *nest.Domain {
		r := 1 + rng.IntN(3)
		fx, fy := 1+rng.IntN(parent.NX), 1+rng.IntN(parent.NY)
		slack := 1
		if rng.IntN(16) == 0 {
			slack = 2 // the offset may put the footprint past the edge
		}
		return parent.AddChild("nest", fx*r-rng.IntN(r), fy*r-rng.IntN(r), r,
			rng.IntN(parent.NX-fx+slack), rng.IntN(parent.NY-fy+slack))
	}
	for range rng.IntN(4) {
		if sib := addNest(root); rng.IntN(4) == 0 {
			addNest(sib)
		}
	}
	// enum draws one of n values, and in one draw of 16 a value just
	// outside them.
	enum := func(n int) int {
		if rng.IntN(16) == 0 {
			return []int{-1, n}[rng.IntN(2)]
		}
		return rng.IntN(n)
	}
	opt := Options{
		Machine:  []machine.Machine{machine.BGL(), machine.BGP()}[rng.IntN(2)],
		Ranks:    enum(65),
		Strategy: Strategy(enum(2)),
		MapKind:  MapKind(enum(4)),
		Alloc:    AllocPolicy(enum(4)),
		IOMode:   iosim.Mode(enum(2)),
	}
	if rng.IntN(2) == 0 {
		opt.OutputEverySteps = 1 + rng.IntN(3)
	}
	opt.NoContention = rng.IntN(4) == 0
	if rng.IntN(16) == 0 {
		opt.Machine.Net.Bandwidth = 0
	}
	return root, opt
}

// runErrors are the typed errors Run may answer a drawn input with.
var runErrors = []error{
	ErrBadRanks, ErrNoSiblings, ErrBadMachine, ErrBadOption,
	nest.ErrBadSize, nest.ErrBadRatio, nest.ErrOutOfBound,
	machine.ErrBadCores, torus.ErrBadDims, vtopo.ErrBadGrid, vtopo.ErrBadRect,
	alloc.ErrNoDomains, alloc.ErrBadGrid, alloc.ErrTooManyDomains,
	alloc.ErrBadWeight, alloc.ErrInfeasible,
	mapping.ErrSizeMismatch, mapping.ErrNotFoldable, mapping.ErrBadTDim, mapping.ErrTooManyRanks,
}

// FuzzRun drives small random trees and options, valid or not, through
// Run. Every input must return a typed error or a result, never panic;
// a result has finite, non-negative iteration, I/O, wait and hop
// figures with WaitMax >= WaitAvg, and the same iteration time when run
// again on the caches the first run filled.
func FuzzRun(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg, opt := fuzzInput(seed)
		res, err := Run(cfg, opt)
		if err != nil {
			for _, want := range runErrors {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("%v, %+v: untyped error %v", cfg, opt, err)
		}
		nonNegative := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 }
		for _, x := range []float64{res.IterTime, res.IOTime, res.WaitAvg, res.WaitMax, res.HopsAvg} {
			if !nonNegative(x) {
				t.Fatalf("%v, %+v: result %+v", cfg, opt, res)
			}
		}
		if res.WaitMax < res.WaitAvg {
			t.Fatalf("%v, %+v: max wait %v below average %v", cfg, opt, res.WaitMax, res.WaitAvg)
		}
		again, err := Run(cfg, opt)
		if err != nil {
			t.Fatalf("%v, %+v: second run failed: %v", cfg, opt, err)
		}
		if math.Float64bits(again.IterTime) != math.Float64bits(res.IterTime) {
			t.Fatalf("%v, %+v: iteration time %v, then %v", cfg, opt, res.IterTime, again.IterTime)
		}
	})
}

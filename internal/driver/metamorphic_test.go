package driver

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
	"nestwrf/internal/workload"
)

// permuteInputs generates a random Pacific configuration of 2-6
// siblings, a permutation of them, a machine (BG/L or BG/P), a
// mapping (oblivious, multi-level or partition), a strategy and a
// rank count.
func permuteInputs(vals []reflect.Value, rng *rand.Rand) {
	siblings := 2 + rng.Intn(5)
	machines := []machine.Machine{machine.BGL(), machine.BGP()}
	kinds := []MapKind{MapSequential, MapMultiLevel, MapPartition}
	vals[0] = reflect.ValueOf(workload.RandomPacific(rng, siblings))
	vals[1] = reflect.ValueOf(rng.Perm(siblings))
	vals[2] = reflect.ValueOf(Options{
		Machine:  machines[rng.Intn(len(machines))],
		Ranks:    []int{256, 512, 1024}[rng.Intn(3)],
		Strategy: []Strategy{Sequential, Concurrent}[rng.Intn(2)],
		MapKind:  kinds[rng.Intn(len(kinds))],
		Alloc:    AllocPredicted,
	})
}

// near reports whether a and b agree to a relative 1e-9.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestQuickSiblingPermutation is the paper's first symmetry: listing a
// configuration's siblings in another order is the same problem. The
// permuted run's per-sibling results are the original's, permuted, and
// its IterTime, WaitAvg and rectangle areas are unchanged. A permuted
// placement list is a different phase geometry to the model, so this
// also guards the networks it keeps loaded between phases.
func TestQuickSiblingPermutation(t *testing.T) {
	f := func(cfg *nest.Domain, perm []int, opt Options) bool {
		permuted := *cfg
		permuted.Children = make([]*nest.Domain, len(perm))
		for i, j := range perm {
			permuted.Children[i] = cfg.Children[j]
		}
		a, err := Run(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(&permuted, opt)
		if err != nil {
			t.Fatal(err)
		}
		ok := near(a.IterTime, b.IterTime) && near(a.WaitAvg, b.WaitAvg) &&
			len(a.Siblings) == len(perm) && len(b.Siblings) == len(perm) && len(a.Rects) == len(b.Rects)
		for i, j := range perm {
			if !ok {
				break
			}
			sa, sb := a.Siblings[j], b.Siblings[i]
			ok = sa.Name == sb.Name && sa.Ranks == sb.Ranks && sa.Rect.Area() == sb.Rect.Area() &&
				near(sa.StepTime, sb.StepTime) && near(sa.PhaseTime, sb.PhaseTime)
			if ok && len(a.Rects) > 0 {
				ok = a.Rects[j].Area() == b.Rects[i].Area()
			}
		}
		if !ok {
			t.Logf("%v/%v/%v on %d ranks, permutation %v:\n original %+v\n permuted %+v",
				opt.Machine.Name, opt.Strategy, opt.MapKind, opt.Ranks, perm, a, b)
		}
		return ok
	}
	n := 60
	if testing.Short() {
		n = 15
	}
	cfg := &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(11)), Values: permuteInputs}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickMoreRanksNeverSlower is Fig. 2's T = W/P + C as a relation:
// on BG/P with the multi-level mapping, growing a run from 512 to 2048
// to 8192 ranks never makes a parent iteration slower, under either
// strategy.
func TestQuickMoreRanksNeverSlower(t *testing.T) {
	f := func(seed int64) bool {
		cfg := workload.RandomPacific(rand.New(rand.NewSource(seed)), 2+int(uint64(seed)%5))
		for _, strategy := range []Strategy{Sequential, Concurrent} {
			prev := math.Inf(1)
			for _, ranks := range []int{512, 2048, 8192} {
				res, err := Run(cfg, Options{Machine: machine.BGP(), Ranks: ranks, Strategy: strategy, MapKind: MapMultiLevel})
				if err != nil {
					t.Fatal(err)
				}
				if res.IterTime > prev {
					t.Logf("seed %d, %v: %d ranks take %v per iteration, fewer took %v", seed, strategy, ranks, res.IterTime, prev)
					return false
				}
				prev = res.IterTime
			}
		}
		return true
	}
	n := 60
	if testing.Short() {
		n = 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Error(err)
	}
}

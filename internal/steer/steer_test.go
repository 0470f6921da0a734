package steer

import (
	"errors"
	"math"
	"testing"

	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
	"nestwrf/internal/workload"
)

func opts(t *testing.T, alloc driver.AllocPolicy) driver.Options {
	t.Helper()
	return driver.Options{
		Machine: machine.BGL(),
		Ranks:   1024,
		MapKind: driver.MapSequential,
		Alloc:   alloc,
	}
}

func TestValidation(t *testing.T) {
	cfg := workload.Table2Config()
	if _, err := (Controller{}).Run(cfg, opts(t, driver.AllocPredicted)); !errors.Is(err, ErrBadOptions) {
		t.Errorf("zero controller: %v", err)
	}
	leaf := nest.Root("leaf", 100, 100)
	if _, err := DefaultController().Run(leaf, opts(t, driver.AllocPredicted)); !errors.Is(err, ErrNoSiblings) {
		t.Errorf("no siblings: %v", err)
	}
}

// Starting from the already-good predicted weights, steering should
// converge quickly and not regress.
func TestSteeringFromPredictedWeights(t *testing.T) {
	cfg := workload.Table2Config()
	out, err := DefaultController().Run(cfg, opts(t, driver.AllocPredicted))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rounds) == 0 {
		t.Fatal("no rounds")
	}
	first := out.Rounds[0].IterTime
	if out.Final.IterTime > first*1.02 {
		t.Errorf("steering regressed: %.3f -> %.3f", first, out.Final.IterTime)
	}
	t.Logf("rounds=%d converged=%v imbalance %.3f -> %.3f",
		len(out.Rounds), out.Converged,
		out.Rounds[0].Imbalance, out.Rounds[len(out.Rounds)-1].Imbalance)
}

// The headline steering demo: bootstrap from the bad equal-split
// allocation and let measurements correct it. Steering must recover
// most of the gap to the predicted allocation.
func TestSteeringRecoversFromBadBootstrap(t *testing.T) {
	cfg := workload.Table2Config()

	// Reference: the predicted allocation's one-shot time.
	ref, err := driver.Run(cfg, func() driver.Options {
		o := opts(t, driver.AllocPredicted)
		o.Strategy = driver.Concurrent
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}

	ctrl := DefaultController()
	ctrl.MaxRounds = 6
	out, err := ctrl.Run(cfg, opts(t, driver.AllocEqual))
	if err != nil {
		t.Fatal(err)
	}
	start := out.Rounds[0].IterTime
	final := out.Final.IterTime
	t.Logf("equal-split %.3f -> steered %.3f (predicted reference %.3f, %d rounds)",
		start, final, ref.IterTime, len(out.Rounds))
	if final >= start {
		t.Errorf("steering did not improve: %.3f -> %.3f", start, final)
	}
	// Recover at least 60% of the gap between equal-split and predicted.
	gap := start - ref.IterTime
	recovered := start - final
	if gap > 0 && recovered < 0.6*gap {
		t.Errorf("recovered only %.3f of the %.3f gap", recovered, gap)
	}
}

// Imbalance must be non-increasing-ish across rounds (with damping it
// may plateau, but the final round should not be worse than the first).
func TestImbalanceShrinks(t *testing.T) {
	cfg := workload.Table2Config()
	ctrl := DefaultController()
	ctrl.MaxRounds = 6
	out, err := ctrl.Run(cfg, opts(t, driver.AllocNaivePoints))
	if err != nil {
		t.Fatal(err)
	}
	first := out.Rounds[0].Imbalance
	last := out.Rounds[len(out.Rounds)-1].Imbalance
	if last > first {
		t.Errorf("imbalance grew: %.3f -> %.3f", first, last)
	}
}

// All-zero sibling phase times must not produce NaN weights: the
// controller falls back to uniform weights instead of dividing by a
// zero sum (which used to poison FixedWeights in the next round).
func TestMeasuredWeightsZeroPhaseTimes(t *testing.T) {
	res := driver.Result{
		Siblings: []driver.DomainMetrics{
			{Name: "a", Ranks: 256, PhaseTime: 0},
			{Name: "b", Ranks: 512, PhaseTime: 0},
			{Name: "c", Ranks: 256, PhaseTime: 0},
		},
	}
	w := measuredWeights(res)
	if len(w) != 3 {
		t.Fatalf("got %d weights", len(w))
	}
	var sum float64
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("weight %d is %v", i, v)
		}
		if v != w[0] {
			t.Errorf("weights not uniform: %v", w)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
}

// A steering session must report the best-observed round as its final
// result: the outcome's iteration time equals the minimum over the
// recorded rounds, and BestRound points at it.
func TestFinalIsBestObservedRound(t *testing.T) {
	cfg := workload.Table2Config()
	ctrl := DefaultController()
	ctrl.MaxRounds = 6
	out, err := ctrl.Run(cfg, opts(t, driver.AllocEqual))
	if err != nil {
		t.Fatal(err)
	}
	best := out.Rounds[0].IterTime
	for _, r := range out.Rounds {
		if r.IterTime < best {
			best = r.IterTime
		}
	}
	if out.Final.IterTime != best {
		t.Errorf("Final.IterTime %.6f, best observed %.6f", out.Final.IterTime, best)
	}
	if out.BestRound < 0 || out.BestRound >= len(out.Rounds) ||
		out.Rounds[out.BestRound].IterTime != best {
		t.Errorf("BestRound %d does not point at the best round", out.BestRound)
	}
	if out.Final.IterTime > out.Rounds[0].IterTime {
		t.Errorf("final %.6f slower than the first round %.6f", out.Final.IterTime, out.Rounds[0].IterTime)
	}
}

package driver

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
	"nestwrf/internal/workload"
)

func steerOpts(alloc AllocPolicy) Options {
	return Options{
		Machine: machine.BGL(),
		Ranks:   1024,
		MapKind: MapSequential,
		Alloc:   alloc,
	}
}

func TestSteerValidation(t *testing.T) {
	cfg := workload.Table2Config()
	if _, err := Steer(cfg, steerOpts(AllocPredicted), 0); err == nil {
		t.Error("zero rounds accepted")
	}
	leaf := nest.Root("leaf", 100, 100)
	if _, err := Steer(leaf, steerOpts(AllocPredicted), 5); !errors.Is(err, ErrNoSiblings) {
		t.Errorf("no siblings: %v", err)
	}
}

// Starting from the already-good predicted weights, steering should
// converge quickly and not regress.
func TestSteeringFromPredictedWeights(t *testing.T) {
	cfg := workload.Table2Config()
	out, err := Steer(cfg, steerOpts(AllocPredicted), 5)
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
	refOpt := steerOpts(AllocPredicted)
	refOpt.Strategy = Concurrent
	ref := mustRun(t, cfg, refOpt)

	out, err := Steer(cfg, steerOpts(AllocEqual), 6)
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
func TestSteerImbalanceShrinks(t *testing.T) {
	out, err := Steer(workload.Table2Config(), steerOpts(AllocNaivePoints), 6)
	if err != nil {
		t.Fatal(err)
	}
	first := out.Rounds[0].Imbalance
	last := out.Rounds[len(out.Rounds)-1].Imbalance
	if last > first {
		t.Errorf("imbalance grew: %.3f -> %.3f", first, last)
	}
}

// A run with no measured work (free computation, one rank per sibling,
// so no halo exchanges either) has imbalance 0: it converges in the
// first round and never feeds weights to Algorithm 1, and the work
// shares it records are zero (not NaN from dividing by the zero sum).
func TestSteerZeroWork(t *testing.T) {
	m := machine.BGL()
	m.PointCost, m.StepOverhead = 0, 0
	cfg := nest.Root("p", 100, 100)
	cfg.AddChild("a", 60, 60, 3, 5, 5)
	cfg.AddChild("b", 90, 60, 3, 50, 30)
	out, err := Steer(cfg, Options{Machine: m, Ranks: 2, Alloc: AllocEqual}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rounds) != 1 || !out.Converged {
		t.Fatalf("rounds=%d converged=%v, want one converged round", len(out.Rounds), out.Converged)
	}
	r := out.Rounds[0]
	if r.Imbalance != 0 || len(r.Weights) != 2 {
		t.Fatalf("imbalance %v, weights %v", r.Imbalance, r.Weights)
	}
	for i, w := range r.Weights {
		if w != 0 {
			t.Errorf("work share %d is %v, want 0", i, w)
		}
	}
}

// A steering session must report the best-observed round as its final
// result: the outcome's iteration time equals the minimum over the
// recorded rounds, and BestRound points at it.
func TestSteerFinalIsBestObservedRound(t *testing.T) {
	out, err := Steer(workload.Table2Config(), steerOpts(AllocEqual), 6)
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

// steerDigest hashes a steering outcome bit for bit: every round's
// weights, iteration time and imbalance, then the best round, the
// convergence flag and the final partitions.
func steerDigest(out SteerOutcome) string {
	h := sha256.New()
	for _, r := range out.Rounds {
		for _, w := range r.Weights {
			fmt.Fprintf(h, "%x,", math.Float64bits(w))
		}
		fmt.Fprintf(h, "|%x|%x;", math.Float64bits(r.IterTime), math.Float64bits(r.Imbalance))
	}
	fmt.Fprintf(h, "best=%d converged=%v", out.BestRound, out.Converged)
	for _, rc := range out.Final.Rects {
		fmt.Fprintf(h, " %d,%d,%d,%d", rc.X, rc.Y, rc.W, rc.H)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSteerOutcomeDigests pins steering sessions to digests recorded on
// the standalone steering controller this loop replaced: Table 2 on
// 1024 BG/L cores from three bootstrap policies (6 rounds each), and
// Fig. 10 on 2048 BG/P cores from the equal split (5 rounds, converging
// in the third).
func TestSteerOutcomeDigests(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    *nest.Domain
		opt    Options
		rounds int
		want   string
	}{
		{"table2/equal", workload.Table2Config(), steerOpts(AllocEqual), 6,
			"0538023334d7551851e8110b873ca4bec8aff141f6497969595ea119ed257019"},
		{"table2/naive-points", workload.Table2Config(), steerOpts(AllocNaivePoints), 6,
			"9327dcdac8133aa915e012f9a8538b2cb11221c98503792686a9e6eaf1e166b2"},
		{"table2/predicted", workload.Table2Config(), steerOpts(AllocPredicted), 6,
			"4eb3e7798447740658a1396dcb0ff2904424486f84fa59d0902ecc07ec17396b"},
		{"fig10/equal", workload.Fig10Config(),
			Options{Machine: machine.BGP(), Ranks: 2048, MapKind: MapSequential, Alloc: AllocEqual}, 5,
			"44000c4873fb7c171d2097e08dc71b62f341da797bd1cb571ce81712655caba5"},
	} {
		out, err := Steer(tc.cfg, tc.opt, tc.rounds)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := steerDigest(out); got != tc.want {
			t.Errorf("%s: digest %s, want %s (rounds=%d best=%d converged=%v)",
				tc.name, got, tc.want, len(out.Rounds), out.BestRound, out.Converged)
		}
	}
}

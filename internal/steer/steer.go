// Package steer implements closed-loop allocation steering, the
// paper's third future-work item ("We also plan to simultaneously
// steer these multiple nested simulations", Section 6): instead of
// trusting the performance model once, the controller observes the
// siblings' measured phase times from the running simulation and
// re-partitions the processor grid whenever the imbalance exceeds a
// threshold — predictions bootstrap the run, measurements refine it.
package steer

import (
	"errors"
	"fmt"

	"nestwrf/internal/driver"
	"nestwrf/internal/nest"
	"nestwrf/internal/stats"
)

// Controller tunes the sibling allocation from observed phase times.
type Controller struct {
	// Threshold is the relative imbalance (max-min over mean of sibling
	// phase times) above which the controller re-partitions. Typical:
	// 0.05-0.15.
	Threshold float64
	// MaxRounds bounds the number of correction rounds.
	MaxRounds int
	// Damping blends new weights with old: w' = (1-d)*measured + d*old.
	// Zero means full correction each round.
	Damping float64
}

// DefaultController returns a controller with a 5% threshold, up to 5
// rounds and light damping.
func DefaultController() Controller {
	return Controller{Threshold: 0.05, MaxRounds: 5, Damping: 0.25}
}

// Round is one steering step's record.
type Round struct {
	// Weights used for this round's allocation.
	Weights []float64
	// IterTime and Imbalance observed under those weights.
	IterTime  float64
	Imbalance float64
}

// Outcome reports a steering session.
type Outcome struct {
	Rounds []Round
	// Final is the best-observed round's result: the lowest iteration
	// time seen across the session. A steering step that overshoots in
	// the last round therefore cannot drag the reported outcome below
	// an earlier, faster round (Rounds keeps the full history).
	Final driver.Result
	// BestRound is the index into Rounds that Final came from.
	BestRound int
	// Converged reports whether the imbalance fell below the threshold
	// within MaxRounds.
	Converged bool
}

// Errors.
var (
	ErrNoSiblings = errors.New("steer: configuration has no siblings")
	ErrBadOptions = errors.New("steer: controller needs positive threshold and rounds")
)

// imbalance returns (max-min)/mean over the sibling phase times.
func imbalance(res driver.Result) float64 {
	var times []float64
	for _, s := range res.Siblings {
		times = append(times, s.PhaseTime)
	}
	m := stats.Mean(times)
	if m == 0 {
		return 0
	}
	return (stats.Max(times) - stats.Min(times)) / m
}

// measuredWeights extracts normalized weights from observed phase
// times: a sibling that ran longer than its share deserves more
// processors. The observed per-step work of sibling i is approximately
// PhaseTime_i x Ranks_i (time x resources); allocating proportionally
// to that product rebalances the next round.
func measuredWeights(res driver.Result) []float64 {
	w := make([]float64, len(res.Siblings))
	var sum float64
	for i, s := range res.Siblings {
		w[i] = s.PhaseTime * float64(s.Ranks)
		sum += w[i]
	}
	if sum == 0 {
		// All sibling phase times were zero (a degenerate cost model or
		// empty siblings): dividing by the zero sum would make every
		// weight NaN, which the next round would feed back through
		// FixedWeights and poison the allocation. Fall back to uniform
		// weights instead.
		u := 1 / float64(len(w))
		for i := range w {
			w[i] = u
		}
		return w
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Run steers the concurrent execution of cfg: it runs with the given
// options, measures the sibling imbalance, and re-runs with corrected
// weights until balanced or MaxRounds is hit. opt.Strategy is forced to
// Concurrent; the initial weights come from opt's allocation policy.
func (c Controller) Run(cfg *nest.Domain, opt driver.Options) (Outcome, error) {
	if c.Threshold <= 0 || c.MaxRounds <= 0 {
		return Outcome{}, ErrBadOptions
	}
	if len(cfg.Children) == 0 {
		return Outcome{}, ErrNoSiblings
	}
	opt.Strategy = driver.Concurrent

	var out Outcome
	var weights []float64
	for round := 0; round < c.MaxRounds; round++ {
		runOpt := opt
		if weights != nil {
			// Inject the corrected weights through a predictor-free path:
			// Algorithm 1 consumes them directly.
			runOpt.Alloc = driver.AllocPredicted
			runOpt.Predictor = nil
			runOpt.FixedWeights = weights
		}
		res, err := driver.Run(cfg, runOpt)
		if err != nil {
			return Outcome{}, fmt.Errorf("steer round %d: %w", round, err)
		}
		imb := imbalance(res)
		used := weights
		if used == nil {
			used = measuredWeights(res) // record the effective shares
		}
		out.Rounds = append(out.Rounds, Round{
			Weights:   append([]float64(nil), used...),
			IterTime:  res.IterTime,
			Imbalance: imb,
		})
		// Keep the best-observed round as the outcome: a correction can
		// overshoot, and a non-converged session must not report a
		// worse-than-best final result.
		if round == 0 || res.IterTime < out.Final.IterTime {
			out.Final = res
			out.BestRound = round
		}
		if imb <= c.Threshold {
			out.Converged = true
			return out, nil
		}
		// Correct: blend measured work shares with the current weights.
		next := measuredWeights(res)
		if weights != nil && c.Damping > 0 {
			for i := range next {
				next[i] = (1-c.Damping)*next[i] + c.Damping*weights[i]
			}
		}
		weights = next
	}
	return out, nil
}

// Closed-loop allocation steering, the paper's third future-work item
// ("We also plan to simultaneously steer these multiple nested
// simulations", Section 6): instead of trusting the performance model
// once, Steer observes the siblings' measured phase times and
// re-partitions the processor grid whenever the imbalance exceeds a
// threshold — predictions bootstrap the run, measurements refine it.

package driver

import (
	"errors"
	"fmt"

	"nestwrf/internal/nest"
	"nestwrf/internal/stats"
)

const (
	// steerThreshold is the relative imbalance (max-min over mean of the
	// sibling phase times) at or below which a steering session has
	// converged.
	steerThreshold = 0.05
	// steerDamping blends each correction with the weights it replaces:
	// w' = (1-d)*measured + d*old.
	steerDamping = 0.25
)

// SteerRound is one steering step's record.
type SteerRound struct {
	// Weights used for this round's allocation; the first round records
	// the realized work shares of the bootstrap allocation.
	Weights []float64
	// IterTime and Imbalance observed under those weights.
	IterTime  float64
	Imbalance float64
}

// SteerOutcome reports a steering session.
type SteerOutcome struct {
	Rounds []SteerRound
	// Final is the best-observed round's result: the lowest iteration
	// time seen across the session. A steering step that overshoots in
	// the last round therefore cannot drag the reported outcome below
	// an earlier, faster round (Rounds keeps the full history).
	Final Result
	// BestRound is the index into Rounds that Final came from.
	BestRound int
	// Converged reports whether the imbalance fell to the threshold
	// within the allowed rounds.
	Converged bool
}

// Steer runs the concurrent execution of cfg under opt, measures the
// sibling imbalance, and re-runs with corrected weights until balanced
// or after at most rounds runs. opt.Strategy is forced to Concurrent;
// the first round's allocation comes from opt's policy, every later
// one from Algorithm 1 on the corrected weights.
func Steer(cfg *nest.Domain, opt Options, rounds int) (SteerOutcome, error) {
	if rounds <= 0 {
		return SteerOutcome{}, errors.New("driver: steering needs at least one round")
	}
	opt.Strategy = Concurrent

	var out SteerOutcome
	var weights []float64
	for round := 0; round < rounds; round++ {
		if weights != nil {
			opt.Alloc = AllocPredicted
		}
		res, _, err := run0(cfg, opt, opt.Metrics != nil, weights)
		if err != nil {
			return SteerOutcome{}, fmt.Errorf("steer round %d: %w", round, err)
		}
		imb := imbalance(res.Siblings)
		measured, _ := realizedShares(res.Siblings)
		used := weights
		if used == nil {
			used = measured
		}
		out.Rounds = append(out.Rounds, SteerRound{
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
		if imb <= steerThreshold {
			out.Converged = true
			return out, nil
		}
		// Correct: blend the measured work shares with the current weights.
		if weights != nil {
			for i := range measured {
				measured[i] = (1-steerDamping)*measured[i] + steerDamping*weights[i]
			}
		}
		weights = measured
	}
	return out, nil
}

// imbalance returns (max-min)/mean over the sibling phase times, 0 when
// no sibling took any time.
func imbalance(sibs []DomainMetrics) float64 {
	times := make([]float64, len(sibs))
	for i, s := range sibs {
		times[i] = s.PhaseTime
	}
	m := stats.Mean(times)
	if m == 0 {
		return 0
	}
	return (stats.Max(times) - stats.Min(times)) / m
}

// realizedShares returns each sibling's realized work share — phase
// time x ranks over the sum across siblings, all zero when that work is
// zero — and the work sum. A sibling that ran longer than its share
// deserves more processors, so the shares are the weights that
// rebalance the next steering round; the report compares them with
// the predicted shares.
func realizedShares(sibs []DomainMetrics) ([]float64, float64) {
	w := make([]float64, len(sibs))
	var work float64
	for i, s := range sibs {
		w[i] = s.PhaseTime * float64(s.Ranks)
		work += w[i]
	}
	if work > 0 {
		for i := range w {
			w[i] /= work
		}
	}
	return w, work
}

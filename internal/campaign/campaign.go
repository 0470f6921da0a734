// Package campaign simulates multi-day forecast campaigns in which the
// set of tracked regions of interest changes over time — depressions
// form, intensify and dissipate, each spawning or retiring a
// high-resolution nest ("multiple simulations need to be spawned within
// the main parent simulation", Section 1 of the paper). Each phase of a
// campaign re-plans the processor allocation; the concurrent strategy
// additionally pays a modeled redistribution cost when partitions
// change, so the comparison against the default strategy stays honest.
package campaign

import (
	"errors"
	"fmt"

	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
	"nestwrf/internal/nest"
)

// Phase is one segment of a campaign: a domain configuration that stays
// active for a number of parent iterations.
type Phase struct {
	Steps  int
	Config *nest.Domain
}

// PhaseResult reports one phase's per-iteration times under both
// strategies.
type PhaseResult struct {
	Name        string
	Steps       int
	Nests       int
	DefaultIter float64
	ConcIter    float64
	// Redistribute is the one-off cost the concurrent strategy paid at
	// the phase boundary to move nest state onto the new partitions.
	Redistribute float64
}

// Result aggregates a whole campaign.
type Result struct {
	Phases []PhaseResult
	// TotalDefault and TotalConcurrent are the campaign wall times
	// (virtual seconds), including redistribution for the concurrent
	// strategy.
	TotalDefault    float64
	TotalConcurrent float64
	// Replans counts partition changes.
	Replans int
}

// ImprovementPct returns the campaign-level gain of the concurrent
// strategy.
func (r Result) ImprovementPct() float64 {
	if r.TotalDefault == 0 {
		return 0
	}
	return 100 * (r.TotalDefault - r.TotalConcurrent) / r.TotalDefault
}

// Errors.
var (
	ErrNoPhases = errors.New("campaign: no phases")
	ErrBadSteps = errors.New("campaign: phase steps must be positive")
	// ErrBadOptions reports options the redistribution model cannot
	// work with: a zero rank count or torus bandwidth would divide the
	// transferred bytes by zero and report +Inf/NaN campaign times.
	ErrBadOptions = errors.New("campaign: bad options")
)

// StateBytesPerPoint is the nest state volume that must move when a
// nest's partition changes (full prognostic state, all levels).
const StateBytesPerPoint = 4500.0

// Runner executes one phase configuration under one set of options.
// Run uses driver.Run; the ensemble engine substitutes a plan-cache-
// backed runner so repeated phase geometries across campaign members
// are simulated once.
type Runner func(cfg *nest.Domain, opt driver.Options) (driver.Result, error)

// Run executes the campaign under both strategies with the given base
// options (Strategy is set per run; everything else is honoured).
func Run(phases []Phase, opt driver.Options) (Result, error) {
	return RunWith(phases, opt, driver.Run)
}

// RunWith is Run with a pluggable phase runner.
func RunWith(phases []Phase, opt driver.Options, run Runner) (Result, error) {
	if len(phases) == 0 {
		return Result{}, ErrNoPhases
	}
	if err := opt.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	var res Result
	var prevRects []alloc.Rect // previous partition layout, for change detection
	havePrev := false
	for i, ph := range phases {
		if ph.Steps <= 0 {
			return Result{}, fmt.Errorf("%w: phase %d", ErrBadSteps, i)
		}
		cmp, err := driver.RunBoth(ph.Config, opt, run)
		if err != nil {
			return Result{}, fmt.Errorf("phase %d (%s): %w", i, ph.Config.Name, err)
		}
		seq, con := cmp.Default, cmp.Concurrent

		// Redistribution: when the partition layout changes, every nest's
		// state crosses the network once. The aggregate transfer is
		// bounded by the machine's per-link bandwidth times the torus
		// bisection-ish capacity; a simple aggregate-bandwidth model
		// (#ranks/4 concurrent links) captures the scale.
		redist := 0.0
		if !havePrev || !rectsEqual(prevRects, con.Rects) {
			if havePrev {
				res.Replans++
				var bytes float64
				for _, c := range ph.Config.Children {
					bytes += float64(c.Points()) * StateBytesPerPoint
				}
				agg := opt.Machine.Net.Bandwidth * float64(opt.Ranks) / 4
				redist = bytes/agg + opt.Machine.Net.Overhead*float64(len(ph.Config.Children))
			}
			prevRects = con.Rects
			havePrev = true
		}

		res.Phases = append(res.Phases, PhaseResult{
			Name:         ph.Config.Name,
			Steps:        ph.Steps,
			Nests:        len(ph.Config.Children),
			DefaultIter:  seq.IterTime,
			ConcIter:     con.IterTime,
			Redistribute: redist,
		})
		res.TotalDefault += float64(ph.Steps) * seq.IterTime
		res.TotalConcurrent += float64(ph.Steps)*con.IterTime + redist
	}
	return res, nil
}

// rectsEqual reports whether two partition layouts are identical
// rect-for-rect. Comparing the slices directly (rather than a
// formatted rendering) keeps layout-change detection exact and
// allocation-free.
func rectsEqual(a, b []alloc.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Season builds a typical typhoon-season storyline on the Pacific
// parent: one depression forms, a second joins, both intensify as a
// third appears, then the system decays back to a single region.
func Season(stepsPerPhase int) []Phase {
	mk := func(name string, sibs [][4]int) *nest.Domain {
		cfg := nest.Root(name, 286, 307)
		for i, s := range sibs {
			cfg.AddChild(fmt.Sprintf("dep%d", i+1), s[0], s[1], 3, s[2], s[3])
		}
		return cfg
	}
	return []Phase{
		{Steps: stepsPerPhase, Config: mk("formation", [][4]int{
			{259, 229, 20, 30},
		})},
		{Steps: stepsPerPhase, Config: mk("pairing", [][4]int{
			{313, 337, 10, 10},
			{259, 229, 150, 160},
		})},
		{Steps: stepsPerPhase, Config: mk("peak", [][4]int{
			{394, 418, 5, 5},
			{313, 337, 150, 10},
			{259, 229, 20, 170},
		})},
		{Steps: stepsPerPhase, Config: mk("landfall", [][4]int{
			{415, 445, 30, 30},
			{232, 256, 170, 170},
		})},
		{Steps: stepsPerPhase, Config: mk("decay", [][4]int{
			{232, 202, 80, 90},
		})},
	}
}

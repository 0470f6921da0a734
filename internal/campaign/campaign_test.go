package campaign

import (
	"errors"
	"testing"

	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
)

func opts(t *testing.T) driver.Options {
	t.Helper()
	return driver.Options{
		Machine: machine.BGL(),
		Ranks:   1024,
		MapKind: driver.MapSequential,
		Alloc:   driver.AllocPredicted,
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, opts(t)); !errors.Is(err, ErrNoPhases) {
		t.Errorf("empty: %v", err)
	}
	cfg := nest.Root("p", 286, 307)
	cfg.AddChild("c", 200, 200, 3, 10, 10)
	if _, err := Run([]Phase{{Steps: 0, Config: cfg}}, opts(t)); !errors.Is(err, ErrBadSteps) {
		t.Errorf("zero steps: %v", err)
	}
	bad := nest.Root("bad", -1, 10)
	if _, err := Run([]Phase{{Steps: 1, Config: bad}}, opts(t)); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestSeasonCampaign(t *testing.T) {
	phases := Season(100)
	if len(phases) != 5 {
		t.Fatalf("season has %d phases", len(phases))
	}
	for _, ph := range phases {
		if err := ph.Config.Validate(); err != nil {
			t.Fatalf("%s: %v", ph.Config.Name, err)
		}
	}
	res, err := Run(phases, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 5 {
		t.Fatalf("results for %d phases", len(res.Phases))
	}
	// The nest sets differ each phase, so every boundary replans.
	if res.Replans != 4 {
		t.Errorf("replans = %d, want 4", res.Replans)
	}
	// The concurrent strategy must win overall despite redistribution.
	if res.TotalConcurrent >= res.TotalDefault {
		t.Errorf("campaign totals: concurrent %.1f should beat default %.1f",
			res.TotalConcurrent, res.TotalDefault)
	}
	imp := res.ImprovementPct()
	t.Logf("campaign improvement: %.1f%% over %d replans", imp, res.Replans)
	if imp < 5 || imp > 50 {
		t.Errorf("campaign improvement %.1f%% implausible", imp)
	}
	// Multi-nest phases gain more than single-nest ones.
	single := res.Phases[0]
	multi := res.Phases[2]
	gainSingle := 100 * (single.DefaultIter - single.ConcIter) / single.DefaultIter
	gainMulti := 100 * (multi.DefaultIter - multi.ConcIter) / multi.DefaultIter
	if gainMulti <= gainSingle {
		t.Errorf("3-nest phase gain %.1f%% should exceed 1-nest %.1f%%", gainMulti, gainSingle)
	}
}

// Redistribution must be charged only when the partition layout
// actually changes.
func TestNoRedistributionForStablePhases(t *testing.T) {
	cfg := nest.Root("stable", 286, 307)
	cfg.AddChild("a", 300, 300, 3, 10, 10)
	cfg.AddChild("b", 250, 250, 3, 150, 150)
	phases := []Phase{
		{Steps: 10, Config: cfg},
		{Steps: 10, Config: cfg},
		{Steps: 10, Config: cfg},
	}
	res, err := Run(phases, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans != 0 {
		t.Errorf("stable campaign replanned %d times", res.Replans)
	}
	for i, ph := range res.Phases {
		if ph.Redistribute != 0 {
			t.Errorf("phase %d charged redistribution %v", i, ph.Redistribute)
		}
	}
}

// Redistribution costs are small against a phase's integration time
// (one state move vs hundreds of iterations) but strictly positive on
// change.
func TestRedistributionMagnitude(t *testing.T) {
	res, err := Run(Season(100), opts(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, ph := range res.Phases {
		if i == 0 {
			continue
		}
		if ph.Redistribute <= 0 {
			t.Errorf("phase %d: no redistribution charged", i)
		}
		phaseTime := float64(ph.Steps) * ph.ConcIter
		if ph.Redistribute > phaseTime/10 {
			t.Errorf("phase %d: redistribution %v implausibly large vs phase %v",
				i, ph.Redistribute, phaseTime)
		}
	}
}

func TestImprovementPctZeroGuard(t *testing.T) {
	if (Result{}).ImprovementPct() != 0 {
		t.Error("zero totals should give 0")
	}
}

// Options whose redistribution model would divide by zero must be
// rejected up front with a typed error instead of reporting +Inf/NaN
// campaign times.
func TestInvalidOptionsRejected(t *testing.T) {
	cfg := nest.Root("p", 286, 307)
	cfg.AddChild("c", 200, 200, 3, 10, 10)
	phases := []Phase{{Steps: 1, Config: cfg}, {Steps: 1, Config: cfg}}

	zeroRanks := opts(t)
	zeroRanks.Ranks = 0
	if _, err := Run(phases, zeroRanks); !errors.Is(err, ErrBadOptions) {
		t.Errorf("zero ranks: %v", err)
	} else if !errors.Is(err, driver.ErrBadRanks) {
		t.Errorf("zero ranks should carry the driver cause: %v", err)
	}

	zeroBW := opts(t)
	zeroBW.Machine.Net.Bandwidth = 0
	if _, err := Run(phases, zeroBW); !errors.Is(err, ErrBadOptions) {
		t.Errorf("zero bandwidth: %v", err)
	} else if !errors.Is(err, driver.ErrBadMachine) {
		t.Errorf("zero bandwidth should carry the driver cause: %v", err)
	}
}

// RunWith must feed every phase run through the supplied runner and
// reproduce Run's output when the runner is driver.Run itself.
func TestRunWithCustomRunner(t *testing.T) {
	phases := Season(10)
	base, err := Run(phases, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	res, err := RunWith(phases, opts(t), func(cfg *nest.Domain, opt driver.Options) (driver.Result, error) {
		calls++
		return driver.Run(cfg, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(phases); calls != want {
		t.Errorf("runner called %d times, want %d", calls, want)
	}
	if res.TotalDefault != base.TotalDefault || res.TotalConcurrent != base.TotalConcurrent ||
		res.Replans != base.Replans {
		t.Errorf("RunWith diverged from Run: %+v vs %+v", res, base)
	}
}

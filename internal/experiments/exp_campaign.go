package experiments

import (
	"fmt"

	"nestwrf/internal/campaign"
	"nestwrf/internal/machine"
	"nestwrf/internal/stats"
)

// campaignExp runs the five-phase typhoon-season storyline: nests form,
// multiply, intensify and decay; the concurrent strategy re-plans at
// every change and pays the state-redistribution cost.
func campaignExp() (*Table, error) {
	t := &Table{
		ID:    "campaign",
		Title: "Typhoon-season campaign on 1024 BG/L cores (100 iterations per phase)",
		Header: []string{"phase", "nests", "default s/iter", "concurrent s/iter",
			"phase gain", "redistribution (s)"},
	}
	opt := baseOptions(machine.BGL(), 1024, 0, 0)
	res, err := campaign.Run(campaign.Season(100), opt)
	if err != nil {
		return nil, err
	}
	for _, ph := range res.Phases {
		t.AddRow(ph.Name, fmt.Sprintf("%d", ph.Nests),
			f(ph.DefaultIter, 3), f(ph.ConcIter, 3),
			pct(stats.Improvement(ph.DefaultIter, ph.ConcIter)),
			f(ph.Redistribute, 3))
	}
	t.AddNote("campaign totals: default %.1f s vs concurrent %.1f s — %s improvement across %d re-plans (redistribution included)",
		res.TotalDefault, res.TotalConcurrent, pct(res.ImprovementPct()), res.Replans)
	t.AddNote("single-nest phases gain little (nothing to overlap); the peak 3-nest phase gains most — the paper's Section 4.3.4 trend, now across a dynamic timeline")
	return t, nil
}

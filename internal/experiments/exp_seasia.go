package experiments

import (
	"fmt"

	"nestwrf/internal/driver"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/stats"
	"nestwrf/internal/workload"
)

// seasia evaluates the eight fixed SE-Asia configurations, including
// the two-level nesting cases, on 4096 BG/P cores.
func seasia() (*Table, error) {
	t := &Table{
		ID:     "seasia",
		Title:  "SE-Asia configurations on 4096 BG/P cores",
		Header: []string{"config", "siblings", "levels", "default (s)", "concurrent (s)", "improvement"},
	}
	m := machine.BGP()
	var imps []float64
	for _, cfg := range workload.SEAsiaSuite() {
		pair, err := comparePair(cfg, m, 4096, driver.MapMultiLevel, iosim.Collective, 0)
		if err != nil {
			return nil, err
		}
		imp := pair.ImprovementPct
		imps = append(imps, imp)
		t.AddRow(cfg.Name,
			fmt.Sprintf("%d", len(cfg.Children)),
			fmt.Sprintf("%d", cfg.Depth()),
			f(pair.Default.IterTime, 3), f(pair.Concurrent.IterTime, 3), pct(imp))
	}
	t.AddNote("average improvement %s across the suite; the two-level configurations (depth 2) partition recursively: each mid-level domain's rectangle is subdivided among its own children", pct(stats.Mean(imps)))
	t.AddNote("the paper used these configurations for the qualitative SE-Asia study; it reports aggregate improvements only for the Pacific suite")
	return t, nil
}

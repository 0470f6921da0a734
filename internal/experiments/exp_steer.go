package experiments

import (
	"fmt"

	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/workload"
)

// steerExp bootstraps the allocation from the worst policy (equal
// split) and lets measured phase times correct it round by round.
func steerExp() (*Table, error) {
	t := &Table{
		ID:     "steer",
		Title:  "Steering rounds on the Table 2 configuration, 1024 BG/L cores (bootstrap: equal split)",
		Header: []string{"round", "iter time (s)", "imbalance", "work shares (observed)"},
	}
	opt := baseOptions(machine.BGL(), 1024, driver.Concurrent, driver.MapSequential)
	opt.Alloc = driver.AllocEqual
	out, err := driver.Steer(workload.Table2Config(), opt, 6)
	if err != nil {
		return nil, err
	}
	for i, r := range out.Rounds {
		w := ""
		for j, v := range r.Weights {
			if j > 0 {
				w += ":"
			}
			w += fmt.Sprintf("%.2f", v)
		}
		t.AddRow(fmt.Sprintf("%d", i+1), f(r.IterTime, 3), f(r.Imbalance, 3), w)
	}

	// Reference: the one-shot predicted allocation.
	refOpt := baseOptions(machine.BGL(), 1024, driver.Concurrent, driver.MapSequential)
	ref, err := driver.Run(workload.Table2Config(), refOpt)
	if err != nil {
		return nil, err
	}
	t.AddNote("one-shot predicted allocation: %.3f s — steering from the worst bootstrap recovers it (and can beat it: measurements correct residual prediction error)", ref.IterTime)
	t.AddNote("this implements the paper's future-work steering ('simultaneously steer these multiple nested simulations', Section 6) at the allocation level")
	return t, nil
}

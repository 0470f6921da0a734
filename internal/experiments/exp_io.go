package experiments

import (
	"fmt"

	"nestwrf/internal/driver"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/stats"
	"nestwrf/internal/workload"
)

// fig1314 reproduces Figs. 13 and 14: per-iteration integration, I/O
// and total times under high-frequency output, plus the I/O fraction.
func fig1314() (*Table, error) {
	t := &Table{
		ID:    "fig1314",
		Title: "Per-iteration times (s) with output every 5 steps (PnetCDF collective writes)",
		Header: []string{"procs",
			"seq integ", "seq I/O", "seq total", "seq I/O frac",
			"conc integ", "conc I/O", "conc total", "conc I/O frac"},
	}
	m := machine.BGP()
	configs := workload.PacificSuite(77, 10)
	for _, ranks := range []int{512, 1024, 2048, 4096, 8192} {
		var sInt, sIO, cInt, cIO []float64
		for _, cfg := range configs {
			pair, err := comparePair(cfg, m, ranks, driver.MapSequential, iosim.Collective, 5)
			if err != nil {
				return nil, err
			}
			sInt = append(sInt, pair.Default.IterTime)
			sIO = append(sIO, pair.Default.IOTime)
			cInt = append(cInt, pair.Concurrent.IterTime)
			cIO = append(cIO, pair.Concurrent.IOTime)
		}
		si, so := stats.Mean(sInt), stats.Mean(sIO)
		ci, co := stats.Mean(cInt), stats.Mean(cIO)
		t.AddRow(fmt.Sprintf("%d", ranks),
			f(si, 3), f(so, 3), f(si+so, 3), pct(100*so/(si+so)),
			f(ci, 3), f(co, 3), f(ci+co, 3), pct(100*co/(ci+co)),
		)
	}
	t.AddNote("paper Fig. 13(b): sequential per-iteration I/O time rises steadily with processor count (PnetCDF does not scale with writers); the concurrent strategy writes sibling files with partition-sized writer groups simultaneously")
	t.AddNote("paper Fig. 14: the I/O fraction of total time grows with scale for the sequential strategy, throttling overall scalability")
	return t, nil
}

// allocEff reproduces Section 4.6: default 4.49 s; naive strips 4.08 s
// (9%); Algorithm 1 with predicted times 3.72 s (17%).
func allocEff() (*Table, error) {
	t := &Table{
		ID:     "alloceff",
		Title:  "Allocation policies on a 4-sibling configuration, 1024 BG/L cores",
		Header: []string{"policy", "iter time (s)", "improvement vs default", "paper"},
	}
	m := machine.BGL()
	cfg := workload.Table2Config()

	seqOpt := baseOptions(m, 1024, driver.Sequential, driver.MapSequential)
	seq, err := driver.Run(cfg, seqOpt)
	if err != nil {
		return nil, err
	}
	t.AddRow("default sequential", f(seq.IterTime, 2), "-", "4.49 s")

	for _, p := range []struct {
		name   string
		policy driver.AllocPolicy
		paper  string
	}{
		{"equal strips", driver.AllocEqual, "-"},
		{"naive strips (points)", driver.AllocNaivePoints, "9% (4.08 s)"},
		{"Algorithm 1 + prediction (ours)", driver.AllocPredicted, "17% (3.72 s)"},
	} {
		opt := baseOptions(m, 1024, driver.Concurrent, driver.MapSequential)
		opt.Alloc = p.policy
		res, err := driver.Run(cfg, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.name, f(res.IterTime, 2), pct(stats.Improvement(seq.IterTime, res.IterTime)), p.paper)
	}
	t.AddNote("paper Section 4.6: the prediction-driven partitioner beats the naive proportional policy by 8%%")
	return t, nil
}

// fig15 reproduces Fig. 15: scalability and speedup curves of both
// strategies for two equal 259x229 siblings.
func fig15() (*Table, error) {
	t := &Table{
		ID:     "fig15",
		Title:  "Scalability and speedup, two 259x229 siblings",
		Header: []string{"procs", "default (s)", "concurrent (s)", "default speedup", "concurrent speedup", "conc gain"},
	}
	m := machine.BGL()
	cfg := workload.Fig15Config()
	var d32, c32 float64
	for _, ranks := range []int{32, 64, 128, 256, 512, 1024} {
		pair, err := comparePair(cfg, m, ranks, driver.MapSequential, iosim.Split, 0)
		if err != nil {
			return nil, err
		}
		if ranks == 32 {
			d32, c32 = pair.Default.IterTime, pair.Concurrent.IterTime
		}
		t.AddRow(fmt.Sprintf("%d", ranks),
			f(pair.Default.IterTime, 3), f(pair.Concurrent.IterTime, 3),
			f(d32/pair.Default.IterTime, 2), f(c32/pair.Concurrent.IterTime, 2),
			pct(pair.ImprovementPct))
	}
	t.AddNote("paper Fig. 15: at low processor counts the strategies tie (the nests are far from saturation); past the saturation point (~700 processors) the concurrent strategy keeps its advantage")
	return t, nil
}

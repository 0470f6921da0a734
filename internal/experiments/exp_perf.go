package experiments

import (
	"fmt"
	"sort"

	"nestwrf/internal/driver"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
	"nestwrf/internal/stats"
	"nestwrf/internal/workload"
)

// comparePair runs one configuration as the baseline pair: the default
// strategy on the oblivious mapping, then the concurrent strategy on
// kind, with the same I/O settings.
func comparePair(cfg *nest.Domain, m machine.Machine, ranks int, kind driver.MapKind,
	ioMode iosim.Mode, outEvery int) (driver.Comparison, error) {
	opt := baseOptions(m, ranks, driver.Concurrent, kind)
	opt.IOMode = ioMode
	opt.OutputEverySteps = outEvery
	return driver.RunBoth(cfg, opt, driver.Run)
}

// perIter85 reproduces Section 4.3.1: 85 random configurations on 1024
// BG/L cores (paper: average 21.14%, maximum 33.04%).
func perIter85() (*Table, error) {
	t := &Table{
		ID:     "periter",
		Title:  "Integration-time improvement of concurrent siblings over the default strategy",
		Header: []string{"metric", "ours", "paper"},
	}
	m := machine.BGL()
	configs := workload.PacificSuite(2012, 85)
	imps := make([]float64, len(configs))
	if err := forEach(len(configs), func(i int) error {
		pair, err := comparePair(configs[i], m, 1024, driver.MapSequential, iosim.Split, 0)
		if err != nil {
			return err
		}
		imps[i] = pair.ImprovementPct
		return nil
	}); err != nil {
		return nil, err
	}
	s := stats.Summarize(imps)
	t.AddRow("average improvement", pct(s.Mean), "21.14%")
	t.AddRow("maximum improvement", pct(s.Max), "33.04%")
	t.AddRow("minimum improvement", pct(s.Min), "-")
	t.AddRow("configurations", fmt.Sprintf("%d", s.N), "85")
	t.AddNote("nest sizes 178x202-394x418 equivalent (94x124-415x445 random range), 2-4 siblings, topology-oblivious mapping")
	return t, nil
}

// fig8 reproduces Fig. 8: improvement with and without I/O time on
// BG/P at 512-4096 cores, averaged over 30 configurations.
func fig8() (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Average improvement over 30 configs, with and without I/O (PnetCDF, high-frequency output)",
		Header: []string{"procs", "excl. I/O", "incl. I/O"},
	}
	m := machine.BGP()
	configs := workload.PacificSuite(88, 30)
	ranksList := []int{512, 1024, 2048, 4096}
	// Flatten the ranks x configs sweep into one index space so the
	// fan-out covers all 120 independent runs at once.
	type cell struct{ ex, inc float64 }
	cells := make([]cell, len(ranksList)*len(configs))
	if err := forEach(len(cells), func(j int) error {
		ranks, cfg := ranksList[j/len(configs)], configs[j%len(configs)]
		pair, err := comparePair(cfg, m, ranks, driver.MapSequential, iosim.Collective, 5)
		if err != nil {
			return err
		}
		cells[j] = cell{
			ex:  pair.ImprovementPct,
			inc: pair.TotalImprovementPct,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for ri, ranks := range ranksList {
		ex := make([]float64, len(configs))
		inc := make([]float64, len(configs))
		for ci := range configs {
			ex[ci] = cells[ri*len(configs)+ci].ex
			inc[ci] = cells[ri*len(configs)+ci].inc
		}
		t.AddRow(fmt.Sprintf("%d", ranks), pct(stats.Mean(ex)), pct(stats.Mean(inc)))
	}
	t.AddNote("paper's Fig. 8: improvement is higher when I/O times are included, because PnetCDF does not scale with the writer count")
	return t, nil
}

// tab1 reproduces Table 1: MPI_Wait improvements.
func tab1() (*Table, error) {
	t := &Table{
		ID:     "tab1",
		Title:  "Improvement in per-rank MPI_Wait time (concurrent vs default)",
		Header: []string{"processors", "average", "maximum", "paper avg", "paper max"},
	}
	paper := map[string][2]string{
		"1024 on BG/L": {"38.42%", "66.30%"},
		"512 on BG/P":  {"30.70%", "60.92%"},
		"1024 on BG/P": {"36.01%", "60.11%"},
		"2048 on BG/P": {"27.02%", "55.54%"},
		"4096 on BG/P": {"28.68%", "43.86%"},
	}
	rows := []struct {
		label string
		m     machine.Machine
		ranks int
	}{
		{"1024 on BG/L", machine.BGL(), 1024},
		{"512 on BG/P", machine.BGP(), 512},
		{"1024 on BG/P", machine.BGP(), 1024},
		{"2048 on BG/P", machine.BGP(), 2048},
		{"4096 on BG/P", machine.BGP(), 4096},
	}
	configs := workload.PacificSuite(41, 20)
	imps := make([]float64, len(rows)*len(configs))
	if err := forEach(len(imps), func(j int) error {
		row, cfg := rows[j/len(configs)], configs[j%len(configs)]
		pair, err := comparePair(cfg, row.m, row.ranks, driver.MapSequential, iosim.Split, 0)
		if err != nil {
			return err
		}
		imps[j] = pair.WaitImprovementPct
		return nil
	}); err != nil {
		return nil, err
	}
	for ri, row := range rows {
		s := stats.Summarize(imps[ri*len(configs) : (ri+1)*len(configs)])
		p := paper[row.label]
		t.AddRow(row.label, pct(s.Mean), pct(s.Max), p[0], p[1])
	}
	t.AddNote("20 random configurations per machine/size; paper values from Table 1")
	return t, nil
}

// tab2fig9 reproduces Table 2 and Fig. 9: the 4-sibling configuration.
func tab2fig9() (*Table, error) {
	t := &Table{
		ID:     "tab2fig9",
		Title:  "Per-sibling nest sub-step times: sequential (1024 cores each) vs concurrent (partitions)",
		Header: []string{"sibling", "size", "partition", "procs", "seq step (s)", "conc step (s)", "paper seq", "paper conc"},
	}
	cfg := workload.Table2Config()
	m := machine.BGL()
	pair, err := comparePair(cfg, m, 1024, driver.MapSequential, iosim.Split, 0)
	if err != nil {
		return nil, err
	}
	seq, con := pair.Default.Siblings, pair.Concurrent.Siblings
	paperSeq := []string{"0.4", "0.2", "0.2", "0.3"}
	paperCon := []string{"0.7", "0.6", "0.6", "0.7"}
	var seqSum, conMax float64
	for i, c := range cfg.Children {
		seqSum += seq[i].StepTime
		if con[i].StepTime > conMax {
			conMax = con[i].StepTime
		}
		t.AddRow(
			c.Name,
			fmt.Sprintf("%dx%d", c.NX, c.NY),
			con[i].Rect.String(),
			fmt.Sprintf("%d", con[i].Ranks),
			f(seq[i].StepTime, 3),
			f(con[i].StepTime, 3),
			paperSeq[i],
			paperCon[i],
		)
	}
	t.AddNote("sequential sum %.3f s vs concurrent max %.3f s: %.1f%% gain for the sibling phase (paper: 1.1 s vs 0.7 s, 36%%)",
		seqSum, conMax, stats.Improvement(seqSum, conMax))
	t.AddNote("paper partitions: 18x24, 18x8, 14x12, 14x20 (Table 2)")
	return t, nil
}

// fig10 reproduces Fig. 10: three large siblings on 1024-8192 BG/P
// cores (paper: 1.33% at 1024 rising to 20.64% at 8192).
func fig10() (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "Improvement for 3 large siblings (586x643, 856x919, 925x850) vs BG/P cores",
		Header: []string{"procs", "default (s)", "concurrent (s)", "improvement"},
	}
	cfg := workload.Fig10Config()
	m := machine.BGP()
	for _, ranks := range []int{1024, 2048, 4096, 8192} {
		pair, err := comparePair(cfg, m, ranks, driver.MapSequential, iosim.Split, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", ranks), f(pair.Default.IterTime, 3), f(pair.Concurrent.IterTime, 3),
			pct(pair.ImprovementPct))
	}
	t.AddNote("paper: 1.33%% at 1024 cores growing to 20.64%% at 8192 — large nests saturate later, so partitioning pays off only at scale")
	return t, nil
}

// nsib reproduces Section 4.3.4: improvement grows with the sibling
// count (paper: 19.43% for 2 siblings vs 24.22% for 4).
func nsib() (*Table, error) {
	t := &Table{
		ID:     "nsib",
		Title:  "Average improvement vs number of siblings, 1024 BG/L cores",
		Header: []string{"siblings", "avg improvement", "paper"},
	}
	m := machine.BGL()
	paper := map[int]string{2: "19.43%", 3: "-", 4: "24.22%"}
	for _, k := range []int{2, 3, 4} {
		var matching []*nest.Domain
		for _, cfg := range workload.PacificSuite(int64(100+k), 40) {
			if len(cfg.Children) == k {
				matching = append(matching, cfg)
			}
		}
		imps := make([]float64, len(matching))
		if err := forEach(len(matching), func(i int) error {
			pair, err := comparePair(matching[i], m, 1024, driver.MapSequential, iosim.Split, 0)
			if err != nil {
				return err
			}
			imps[i] = pair.ImprovementPct
			return nil
		}); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d (n=%d)", k, len(matching)), pct(stats.Mean(imps)), paper[k])
	}
	t.AddNote("more siblings mean a longer sequential nest phase but an unchanged concurrent one, so the gain grows with the sibling count")
	return t, nil
}

// tab3 reproduces Table 3: improvement vs maximum nest size.
func tab3() (*Table, error) {
	t := &Table{
		ID:     "tab3",
		Title:  "Improvement vs maximum nest size, up to 8192 BG/P cores",
		Header: []string{"max nest", "improvement", "paper"},
	}
	m := machine.BGP()
	paper := map[string]string{"205x223": "25.62%", "394x418": "21.87%", "925x820": "10.11%"}
	fams := workload.Table3Configs()
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	imps := make([]float64, len(names))
	if err := forEach(len(names), func(i int) error {
		pair, err := comparePair(fams[names[i]], m, 8192, driver.MapSequential, iosim.Split, 0)
		if err != nil {
			return err
		}
		imps[i] = pair.ImprovementPct
		return nil
	}); err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(name, pct(imps[i]), paper[name])
	}
	t.AddNote("larger nests need more processors before partitioning helps (Table 3)")
	return t, nil
}

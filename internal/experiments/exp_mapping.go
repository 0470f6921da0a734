package experiments

import (
	"fmt"

	"nestwrf/internal/driver"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
	"nestwrf/internal/stats"
	"nestwrf/internal/workload"
)

// mappingRow runs one configuration under the default strategy and all
// four mappings of the concurrent strategy.
type mappingRow struct {
	def, obl, txyz, part, multi driver.Result
}

func runMappings(cfg *nest.Domain, m machine.Machine, ranks int) (mappingRow, error) {
	pair, err := comparePair(cfg, m, ranks, driver.MapSequential, iosim.Split, 0)
	if err != nil {
		return mappingRow{}, err
	}
	out := mappingRow{def: pair.Default, obl: pair.Concurrent}
	for _, mk := range []struct {
		kind driver.MapKind
		dst  *driver.Result
	}{
		{driver.MapTXYZ, &out.txyz},
		{driver.MapPartition, &out.part},
		{driver.MapMultiLevel, &out.multi},
	} {
		res, err := driver.Run(cfg, baseOptions(m, ranks, driver.Concurrent, mk.kind))
		if err != nil {
			return out, err
		}
		*mk.dst = res
	}
	return out, nil
}

// tab4Configs returns the five configurations of Table 4 (three
// 2-sibling, one 3-sibling, one 4-sibling).
func tab4Configs() []*nest.Domain {
	mk2 := func(name string, a, b [2]int) *nest.Domain {
		root := nest.Root(name, workload.PacificParentNX, workload.PacificParentNY)
		root.AddChild("s1", a[0], a[1], 3, 5, 5)
		root.AddChild("s2", b[0], b[1], 3, 150, 150)
		return root
	}
	c3 := nest.Root("2sib+1", workload.PacificParentNX, workload.PacificParentNY)
	c3.AddChild("s1", 313, 337, 3, 5, 5)
	c3.AddChild("s2", 259, 229, 3, 150, 10)
	c3.AddChild("s3", 232, 256, 3, 20, 160)
	return []*nest.Domain{
		mk2("2sib-a", [2]int{259, 229}, [2]int{259, 229}),
		mk2("2sib-b", [2]int{313, 337}, [2]int{291, 301}),
		mk2("2sib-c", [2]int{394, 418}, [2]int{232, 256}),
		c3,
		workload.Table2Config(),
	}
}

// tab4fig11 reproduces Table 4 and Fig. 11 on 1024 BG/L cores.
func tab4fig11() (*Table, error) {
	t := &Table{
		ID:    "tab4fig11",
		Title: "Per-iteration times (s): default vs topology-oblivious vs topology-aware mappings",
		Header: []string{"config", "default", "oblivious", "partition", "multi-level", "TXYZ",
			"best gain vs obl"},
	}
	m := machine.BGL()
	var waitImpObl, waitImpAware []float64
	for i, cfg := range tab4Configs() {
		row, err := runMappings(cfg, m, 1024)
		if err != nil {
			return nil, err
		}
		best := row.part.IterTime
		if row.multi.IterTime < best {
			best = row.multi.IterTime
		}
		t.AddRow(
			fmt.Sprintf("%d (%d sib)", i+1, len(cfg.Children)),
			f(row.def.IterTime, 2), f(row.obl.IterTime, 2),
			f(row.part.IterTime, 2), f(row.multi.IterTime, 2), f(row.txyz.IterTime, 2),
			pct(stats.Improvement(row.obl.IterTime, best)),
		)
		waitImpObl = append(waitImpObl, stats.Improvement(row.def.WaitAvg, row.obl.WaitAvg))
		waitImpAware = append(waitImpAware, stats.Improvement(row.def.WaitAvg, row.multi.WaitAvg))
	}
	t.AddNote("paper Table 4 rows (default / oblivious / partition / multi-level / TXYZ): 2.77/2.25/2.10/2.07/2.12, 3.69/3.08/2.95/2.92/2.95, 3.43/2.89/2.72/2.72/2.83, 4.98/3.92/3.72/3.72/3.99, 4.75/3.53/3.39/3.33/3.44")
	t.AddNote("MPI_Wait improvement over default (Fig. 11b): oblivious avg %s, multi-level avg %s",
		pct(stats.Mean(waitImpObl)), pct(stats.Mean(waitImpAware)))
	return t, nil
}

// tab5Configs returns the three configurations of Table 5 (two
// 4-sibling, one 3-sibling) with larger nests suitable for 4096 cores.
func tab5Configs() []*nest.Domain {
	c1 := nest.Root("4sib-a", 420, 440)
	c1.AddChild("s1", 394, 418, 3, 5, 5)
	c1.AddChild("s2", 350, 370, 3, 160, 10)
	c1.AddChild("s3", 330, 310, 3, 10, 170)
	c1.AddChild("s4", 360, 390, 3, 170, 170)
	c2 := nest.Root("4sib-b", 420, 440)
	c2.AddChild("s1", 415, 445, 3, 5, 5)
	c2.AddChild("s2", 394, 418, 3, 170, 10)
	c2.AddChild("s3", 313, 337, 3, 10, 180)
	c2.AddChild("s4", 291, 301, 3, 180, 180)
	c3 := nest.Root("3sib", 420, 440)
	c3.AddChild("s1", 415, 445, 3, 5, 5)
	c3.AddChild("s2", 394, 418, 3, 170, 10)
	c3.AddChild("s3", 350, 370, 3, 60, 190)
	return []*nest.Domain{c1, c2, c3}
}

// tab5fig12 reproduces Table 5 and Fig. 12 on 4096 BG/P cores.
func tab5fig12() (*Table, error) {
	t := &Table{
		ID:    "tab5fig12",
		Title: "Per-iteration times (s) and hop statistics on 4096 BG/P cores",
		Header: []string{"config", "default", "oblivious", "partition", "multi-level",
			"hops: def", "obl", "part", "multi"},
	}
	m := machine.BGP()
	var waitImps []float64
	for i, cfg := range tab5Configs() {
		row, err := runMappings(cfg, m, 4096)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d (%d sib)", i+1, len(cfg.Children)),
			f(row.def.IterTime, 2), f(row.obl.IterTime, 2),
			f(row.part.IterTime, 2), f(row.multi.IterTime, 2),
			f(row.def.HopsAvg, 2), f(row.obl.HopsAvg, 2),
			f(row.part.HopsAvg, 2), f(row.multi.HopsAvg, 2),
		)
		waitImps = append(waitImps,
			stats.Improvement(row.def.WaitAvg, row.obl.WaitAvg),
			stats.Improvement(row.def.WaitAvg, row.part.WaitAvg),
			stats.Improvement(row.def.WaitAvg, row.multi.WaitAvg))
	}
	t.AddNote("paper Table 5 (default / oblivious / partition / multi-level): 5.43/3.94/3.92/3.93, 5.65/4.20/4.1/4.1, 5.61/4.39/4.28/4.39")
	t.AddNote("paper Fig. 12: MPI_Wait improvements exceed 50%% on average; topology-aware mappings halve the average hop count while the oblivious mapping's hops match the default")
	t.AddNote("our MPI_Wait improvements across configs and mappings: avg %s", pct(stats.Mean(waitImps)))
	return t, nil
}

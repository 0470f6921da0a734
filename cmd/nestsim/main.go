// Command nestsim plans and simulates nested weather-simulation runs
// with the strategies of Malakar et al. (SC 2012).
//
// Examples:
//
//	# Plan a 4-sibling Pacific run on one BG/L rack: predicted weights,
//	# partitions, mapping quality.
//	nestsim -preset table2 -machine bgl -ranks 1024 -plan
//
//	# Compare the default sequential strategy with concurrent siblings.
//	nestsim -preset table2 -machine bgl -ranks 1024 -compare
//
//	# A custom configuration: parent 286x307, two nests at ratio 3.
//	nestsim -parent 286x307 -nest 394x418@5,5 -nest 313x337@140,150 \
//	        -machine bgp -ranks 4096 -map multilevel -compare
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nestwrf"
	"nestwrf/internal/machine"
)

type nestFlags []string

func (n *nestFlags) String() string { return strings.Join(*n, ",") }
func (n *nestFlags) Set(v string) error {
	*n = append(*n, v)
	return nil
}

func main() {
	var nests nestFlags
	machineName := flag.String("machine", "bgl", "machine model: bgl or bgp")
	ranks := flag.Int("ranks", 1024, "number of cores (ranks in VN mode)")
	parent := flag.String("parent", "286x307", "parent domain size WxH")
	ratio := flag.Int("ratio", 3, "parent-to-nest refinement ratio")
	preset := flag.String("preset", "", "named configuration: table2, fig10, fig15, fig2")
	mapKind := flag.String("map", "oblivious", "mapping: oblivious, txyz, partition, multilevel")
	allocPolicy := flag.String("alloc", "predicted", "allocation: predicted, strips-predicted, naive-points, equal")
	ioEvery := flag.Int("output-every", 0, "write forecast output every N steps (0 = no I/O)")
	ioMode := flag.String("io-mode", "pnetcdf", "I/O model with -output-every: pnetcdf (collective) or split")
	jsonOut := flag.Bool("json", false, "emit the structured run report (or comparison report with -compare) as JSON")
	showMetrics := flag.Bool("metrics", false, "print the run's metrics registry in text exposition format")
	traceOut := flag.String("trace-out", "", "write the iteration schedule as Chrome trace-event JSON to this file (view in Perfetto)")
	plan := flag.Bool("plan", false, "print the execution plan (weights, partitions, mappings)")
	compare := flag.Bool("compare", false, "compare default sequential vs concurrent strategies")
	showTrace := flag.Bool("trace", false, "render the virtual-time schedule of one iteration")
	campaignSteps := flag.Int("campaign", 0, "run the typhoon-season campaign with N iterations per phase (ignores -preset/-nest)")
	steerRounds := flag.Int("steer", 0, "steer the allocation for up to N rounds from measured phase times")
	svgPath := flag.String("svg", "", "with -plan: write the partition diagram (Fig. 3b style) to this SVG file")
	flag.Var(&nests, "nest", "nested domain WxH@X,Y (repeatable)")
	flag.Parse()

	m, err := machine.Parse(*machineName)
	if err != nil {
		fatal(err)
	}
	if *campaignSteps > 0 {
		runCampaign(m, *ranks, *campaignSteps)
		return
	}
	cfg, err := buildConfig(*preset, *parent, *ratio, nests)
	if err != nil {
		fatal(err)
	}
	kind, err := pickMap(*mapKind)
	if err != nil {
		fatal(err)
	}
	alloc, err := pickAlloc(*allocPolicy)
	if err != nil {
		fatal(err)
	}

	if !*jsonOut {
		fmt.Printf("configuration: %s parent %dx%d, %d nests, ratio %d\n",
			cfg.Name, cfg.NX, cfg.NY, len(cfg.Children), *ratio)
		for _, c := range cfg.Children {
			fmt.Printf("  %-10s %4dx%-4d at (%d,%d)\n", c.Name, c.NX, c.NY, c.OffX, c.OffY)
		}
		fmt.Printf("machine: %s, %d cores\n\n", m.Name, *ranks)
	}

	if *plan {
		p, err := nestwrf.Plan(cfg, nestwrf.Options{
			Machine:  m,
			Ranks:    *ranks,
			Strategy: nestwrf.StrategyConcurrent,
			MapKind:  kind,
			Alloc:    alloc,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("virtual processor grid: %dx%d\n", p.Px, p.Py)
		fmt.Printf("predicted execution-time shares and partitions (%v allocation):\n", p.Alloc)
		for i, c := range cfg.Children {
			fmt.Printf("  %-10s weight %.3f -> %s (%d cores)\n",
				c.Name, p.Weights[i], p.Rects[i], p.Rects[i].Area())
		}
		fmt.Println("\nmapping quality (average torus hops between neighbours):")
		for _, name := range []string{"oblivious", "txyz", "partition", "multilevel"} {
			if rep, ok := p.Mapping[name]; ok {
				fmt.Printf("  %-10s parent %.2f, overall %.2f\n", name, rep.ParentAvgHops, rep.OverallAvgHops)
			}
		}
		if *svgPath != "" {
			if err := os.WriteFile(*svgPath, []byte(nestwrf.PartitionsSVG(p)), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("\nwrote partition diagram to %s\n", *svgPath)
		}
		fmt.Println()
	}

	opts := nestwrf.Options{
		Machine:          m,
		Ranks:            *ranks,
		MapKind:          kind,
		Alloc:            alloc,
		OutputEverySteps: *ioEvery,
	}
	if *ioEvery > 0 {
		opts.IOMode, err = nestwrf.ParseIOMode(*ioMode)
		if err != nil {
			fatal(err)
		}
	}
	if *showMetrics {
		opts.Metrics = nestwrf.NewMetricsRegistry()
	}

	if *compare {
		var cmp nestwrf.Comparison
		var rep *nestwrf.ComparisonReport
		if *jsonOut {
			cmp, rep, err = nestwrf.CompareWithReport(cfg, opts)
		} else {
			cmp, err = nestwrf.Compare(cfg, opts)
		}
		if err != nil {
			fatal(err)
		}
		if *traceOut != "" {
			writeTrace(*traceOut,
				nestwrf.TraceProcess{Name: "sequential", Log: nestwrf.TraceIteration(cmp.Default, nestwrf.StrategySequential)},
				nestwrf.TraceProcess{Name: "concurrent", Log: nestwrf.TraceIteration(cmp.Concurrent, nestwrf.StrategyConcurrent)},
			)
		}
		if *jsonOut {
			if err := rep.EncodeJSON(os.Stdout); err != nil {
				fatal(err)
			}
			printMetrics(opts.Metrics)
			return
		}
		fmt.Printf("default sequential:  %.3f s/iteration (wait %.3f s/rank)\n",
			cmp.Default.IterTime, cmp.Default.WaitAvg)
		fmt.Printf("concurrent siblings: %.3f s/iteration (wait %.3f s/rank)\n",
			cmp.Concurrent.IterTime, cmp.Concurrent.WaitAvg)
		fmt.Printf("improvement: %.2f%% integration, %.2f%% MPI_Wait\n",
			cmp.ImprovementPct, cmp.WaitImprovementPct)
		if *ioEvery > 0 {
			fmt.Printf("with I/O: %.3f vs %.3f s/iteration (%.2f%%)\n",
				cmp.Default.Total(), cmp.Concurrent.Total(), cmp.TotalImprovementPct)
		}
		fmt.Println("\nper-sibling nest phases (concurrent):")
		for _, s := range cmp.Concurrent.Siblings {
			fmt.Printf("  %-10s %4d cores %s: step %.3f s, phase %.3f s\n",
				s.Name, s.Ranks, s.Rect, s.StepTime, s.PhaseTime)
		}
		if *showTrace {
			fmt.Println("\nvirtual-time schedule, default sequential:")
			fmt.Print(nestwrf.TraceIteration(cmp.Default, nestwrf.StrategySequential).Render(64))
			fmt.Println("\nvirtual-time schedule, concurrent siblings:")
			fmt.Print(nestwrf.TraceIteration(cmp.Concurrent, nestwrf.StrategyConcurrent).Render(64))
		}
		printMetrics(opts.Metrics)
		return
	}

	if *steerRounds > 0 {
		out, err := nestwrf.Steer(cfg, opts, *steerRounds)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("steering (%d rounds, converged=%v):\n", len(out.Rounds), out.Converged)
		for i, r := range out.Rounds {
			fmt.Printf("  round %d: %.3f s/iteration, imbalance %.3f\n", i+1, r.IterTime, r.Imbalance)
		}
		printMetrics(opts.Metrics)
		return
	}

	if !*plan {
		opts.Strategy = nestwrf.StrategyConcurrent
		var res nestwrf.Result
		var rep *nestwrf.Report
		if *jsonOut {
			res, rep, err = nestwrf.SimulateWithReport(cfg, opts)
		} else {
			res, err = nestwrf.Simulate(cfg, opts)
		}
		if err != nil {
			fatal(err)
		}
		if *traceOut != "" {
			writeTrace(*traceOut,
				nestwrf.TraceProcess{Name: "concurrent", Log: nestwrf.TraceIteration(res, nestwrf.StrategyConcurrent)})
		}
		if *jsonOut {
			if err := rep.EncodeJSON(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			fmt.Printf("concurrent strategy: %.3f s/iteration, wait %.3f s/rank, %.2f avg hops\n",
				res.IterTime, res.WaitAvg, res.HopsAvg)
			if *ioEvery > 0 {
				fmt.Printf("I/O: %.3f s/iteration\n", res.IOTime)
			}
		}
		printMetrics(opts.Metrics)
	}
}

// writeTrace writes the logs as a Chrome trace-event file.
func writeTrace(path string, procs ...nestwrf.TraceProcess) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := nestwrf.WriteChromeTrace(f, procs...); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (open in ui.perfetto.dev)\n", path)
}

// printMetrics renders the registry on stderr so it composes with
// -json on stdout; a nil registry (no -metrics flag) prints nothing.
func printMetrics(reg *nestwrf.MetricsRegistry) {
	if reg == nil {
		return
	}
	fmt.Fprint(os.Stderr, "\n"+reg.Snapshot().Text())
}

func buildConfig(preset, parent string, ratio int, nests nestFlags) (*nestwrf.Domain, error) {
	if preset != "" {
		return presetConfig(preset)
	}
	var pw, ph int
	if _, err := fmt.Sscanf(parent, "%dx%d", &pw, &ph); err != nil {
		return nil, fmt.Errorf("bad -parent %q: want WxH", parent)
	}
	cfg := nestwrf.NewDomain("custom", pw, ph)
	for i, spec := range nests {
		var w, h, x, y int
		if _, err := fmt.Sscanf(spec, "%dx%d@%d,%d", &w, &h, &x, &y); err != nil {
			return nil, fmt.Errorf("bad -nest %q: want WxH@X,Y", spec)
		}
		cfg.AddChild(fmt.Sprintf("nest%d", i+1), w, h, ratio, x, y)
	}
	if len(cfg.Children) == 0 {
		return nil, fmt.Errorf("no nests given; use -nest or -preset")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func presetConfig(name string) (*nestwrf.Domain, error) {
	mk := func(pnx, pny int, sibs [][4]int) *nestwrf.Domain {
		cfg := nestwrf.NewDomain(name, pnx, pny)
		for i, s := range sibs {
			cfg.AddChild(fmt.Sprintf("sibling%d", i+1), s[0], s[1], 3, s[2], s[3])
		}
		return cfg
	}
	switch name {
	case "table2":
		return mk(286, 307, [][4]int{{394, 418, 5, 5}, {232, 202, 150, 10}, {232, 256, 10, 160}, {313, 337, 140, 150}}), nil
	case "fig10":
		return mk(640, 660, [][4]int{{586, 643, 10, 10}, {856, 919, 230, 10}, {925, 850, 10, 330}}), nil
	case "fig15":
		return mk(286, 307, [][4]int{{259, 229, 10, 20}, {259, 229, 150, 180}}), nil
	case "fig2":
		return mk(286, 307, [][4]int{{415, 445, 50, 50}}), nil
	}
	return nil, fmt.Errorf("unknown preset %q (table2, fig10, fig15, fig2)", name)
}

func pickMap(name string) (nestwrf.MapKind, error) {
	return nestwrf.ParseMapKind(name)
}

func pickAlloc(name string) (nestwrf.AllocPolicy, error) {
	return nestwrf.ParseAllocPolicy(name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nestsim:", err)
	os.Exit(1)
}

func runCampaign(m nestwrf.Machine, ranks, steps int) {
	res, err := nestwrf.RunCampaign(nestwrf.TyphoonSeason(steps), nestwrf.Options{
		Machine: m,
		Ranks:   ranks,
		MapKind: nestwrf.MapMultiLevel,
		Alloc:   nestwrf.AllocPredicted,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("typhoon-season campaign on %s, %d cores, %d iterations/phase\n\n", m.Name, ranks, steps)
	fmt.Printf("%-12s %-6s %-14s %-16s %s\n", "phase", "nests", "default s/it", "concurrent s/it", "redistribution")
	for _, ph := range res.Phases {
		fmt.Printf("%-12s %-6d %-14.3f %-16.3f %.3f s\n",
			ph.Name, ph.Nests, ph.DefaultIter, ph.ConcIter, ph.Redistribute)
	}
	fmt.Printf("\ntotals: default %.1f s, concurrent %.1f s (%.1f%% improvement, %d re-plans)\n",
		res.TotalDefault, res.TotalConcurrent, res.ImprovementPct(), res.Replans)
}

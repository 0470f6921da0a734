package experiments

import (
	"fmt"

	"nestwrf/internal/driver"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/stats"
	"nestwrf/internal/workload"
)

// Ablation experiments: the design choices DESIGN.md calls out,
// isolated one at a time. They go beyond the paper's own evaluation
// but answer the questions its design raises.
// ablContention compares mappings with the congestion model enabled and
// disabled. With contention off, only hop latency separates the
// mappings, showing that most of the topology-aware gain comes from
// relieving link sharing.
func ablContention() (*Table, error) {
	t := &Table{
		ID:     "abl-contention",
		Title:  "Per-iteration time (s) on 1024 BG/L cores, concurrent strategy",
		Header: []string{"mapping", "with contention", "without contention", "contention cost"},
	}
	cfg := workload.Table2Config()
	m := machine.BGL()
	var gapOn, gapOff float64
	var oblOn, oblOff float64
	for _, mk := range []struct {
		name string
		kind driver.MapKind
	}{
		{"oblivious", driver.MapSequential},
		{"partition", driver.MapPartition},
		{"multi-level", driver.MapMultiLevel},
	} {
		opt := baseOptions(m, 1024, driver.Concurrent, mk.kind)
		on, err := driver.Run(cfg, opt)
		if err != nil {
			return nil, err
		}
		opt.NoContention = true
		off, err := driver.Run(cfg, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(mk.name, f(on.IterTime, 3), f(off.IterTime, 3),
			pct(stats.Improvement(on.IterTime, off.IterTime)))
		switch mk.name {
		case "oblivious":
			oblOn, oblOff = on.IterTime, off.IterTime
		case "multi-level":
			gapOn = stats.Improvement(oblOn, on.IterTime)
			gapOff = stats.Improvement(oblOff, off.IterTime)
		}
	}
	t.AddNote("multi-level's gain over oblivious: %s with contention vs %s without — link sharing, not raw hop latency, is what the fold removes", pct(gapOn), pct(gapOff))
	return t, nil
}

// ablShape isolates Algorithm 1's square-like partition shapes: both
// policies use the same predicted weights; only the rectangle shapes
// differ.
func ablShape() (*Table, error) {
	t := &Table{
		ID:     "abl-shape",
		Title:  "Partition shape with identical predicted weights, 1024 BG/L cores",
		Header: []string{"policy", "iter time (s)", "improvement vs default"},
	}
	m := machine.BGL()
	cfg := workload.Table2Config()
	seqOpt := baseOptions(m, 1024, driver.Sequential, driver.MapSequential)
	seq, err := driver.Run(cfg, seqOpt)
	if err != nil {
		return nil, err
	}
	t.AddRow("default sequential", f(seq.IterTime, 3), "-")
	for _, p := range []struct {
		name   string
		policy driver.AllocPolicy
	}{
		{"strips + predicted weights", driver.AllocStripsPredicted},
		{"Algorithm 1 + predicted weights", driver.AllocPredicted},
	} {
		opt := baseOptions(m, 1024, driver.Concurrent, driver.MapSequential)
		opt.Alloc = p.policy
		res, err := driver.Run(cfg, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.name, f(res.IterTime, 3), pct(stats.Improvement(seq.IterTime, res.IterTime)))
	}
	t.AddNote("the remaining gap is purely the communication cost of elongated rectangles — the reason Algorithm 1 splits along the longer dimension")
	return t, nil
}

// ablExchanges sweeps the per-step message count (WRF performs 144
// exchanges per step; Section 3.3). More, smaller messages shift the
// communication toward the latency-bound regime where concurrent
// siblings gain most.
func ablExchanges() (*Table, error) {
	t := &Table{
		ID:     "abl-exchanges",
		Title:  "Improvement vs halo-exchange granularity (messages per neighbour per sub-step)",
		Header: []string{"messages/neighbour", "total/step", "default (s)", "concurrent (s)", "improvement"},
	}
	cfg := workload.Table2Config()
	for _, ex := range []int{9, 18, 36, 72} {
		m := machine.BGL()
		m.ExchangesPerStep = ex
		pair, err := comparePair(cfg, m, 1024, driver.MapSequential, iosim.Collective, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", ex), fmt.Sprintf("%d", 4*ex),
			f(pair.Default.IterTime, 3), f(pair.Concurrent.IterTime, 3), pct(pair.ImprovementPct))
	}
	t.AddNote("WRF's real granularity is 36 messages per neighbour (144 per step); finer granularity increases the fixed per-step communication cost, deepening sub-linear scaling and the concurrent strategy's advantage")
	return t, nil
}

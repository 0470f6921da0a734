package nestwrf_test

// Cross-validation between the two worlds of the library: the
// virtual-time cost model (driver) and the functional mini-WRF (wrfsim)
// must agree on the paper's qualitative claims for the same plan — one
// nestwrf.Plan's rectangles run in both — concurrent beats sequential,
// the mappings rank alike, and the equal split is the worst allocation.

import (
	"cmp"
	"strings"
	"testing"

	"nestwrf"
)

func crossConfig() *nestwrf.Domain {
	cfg := nestwrf.NewDomain("parent", 64, 64)
	cfg.AddChild("nest1", 60, 48, 3, 2, 2)
	cfg.AddChild("nest2", 48, 36, 3, 30, 30)
	return cfg
}

// crossPlan is the facade's concurrent plan for crossConfig on 32 BG/L
// ranks under the given allocation policy. Its rectangles are what
// both worlds run.
func crossPlan(t *testing.T, policy nestwrf.AllocPolicy) *nestwrf.ExecutionPlan {
	t.Helper()
	p, err := nestwrf.Plan(crossConfig(), nestwrf.Options{
		Machine:  nestwrf.BlueGeneL(),
		Ranks:    32,
		Strategy: nestwrf.StrategyConcurrent,
		Alloc:    policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// crossRun runs crossConfig functionally on 32 ranks for 3 steps with
// communication-significant transfer times (tm nil: 50 us a message).
func crossRun(t *testing.T, s nestwrf.Strategy, rects []nestwrf.Rect, tm nestwrf.TimeModel) *nestwrf.FunctionalOutput {
	t.Helper()
	if tm == nil {
		tm = nestwrf.AlphaBeta{Alpha: 5e-5, Beta: 1e-9}
	}
	out, err := nestwrf.RunFunctional(crossConfig(), nestwrf.FunctionalOptions{
		Ranks:     32,
		Steps:     3,
		Strategy:  s,
		PointCost: 1e-6,
		TM:        tm,
		Rects:     rects,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// crossSimulate is the driver's iteration time for crossConfig on 32
// BG/L ranks under the concurrent strategy.
func crossSimulate(t *testing.T, kind nestwrf.MapKind, policy nestwrf.AllocPolicy) float64 {
	t.Helper()
	res, err := nestwrf.Simulate(crossConfig(), nestwrf.Options{
		Machine:  nestwrf.BlueGeneL(),
		Ranks:    32,
		Strategy: nestwrf.StrategyConcurrent,
		MapKind:  kind,
		Alloc:    policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.IterTime
}

func TestModeledAndFunctionalAgreeOnStrategy(t *testing.T) {
	cfg := crossConfig()

	// Modeled verdict at 32 ranks.
	pair, err := nestwrf.Compare(cfg, nestwrf.Options{
		Machine: nestwrf.BlueGeneL(),
		Ranks:   32,
		MapKind: nestwrf.MapOblivious,
		Alloc:   nestwrf.AllocNaivePoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	modeledWin := pair.Concurrent.IterTime < pair.Default.IterTime

	// Functional verdict on the same plan's rectangles.
	rects := crossPlan(t, nestwrf.AllocNaivePoints).Rects
	functionalWin := crossRun(t, nestwrf.StrategyConcurrent, rects, nil).MaxClock <
		crossRun(t, nestwrf.StrategySequential, rects, nil).MaxClock

	if modeledWin != functionalWin {
		t.Errorf("worlds disagree: modeled concurrent-wins=%v, functional concurrent-wins=%v",
			modeledWin, functionalWin)
	}
	if !modeledWin {
		t.Error("both worlds should find the concurrent strategy faster here")
	}
}

// Both worlds run the plan's rectangles under each of the four
// mappings, and must rank the mappings alike: the fold never loses to
// the oblivious mapping, and any two mappings compare the same way in
// both (ties included).
func TestModeledAndFunctionalAgreeOnMapping(t *testing.T) {
	rects := crossPlan(t, nestwrf.AllocNaivePoints).Rects

	// Functional: topology time model with heavy per-hop latency.
	m := nestwrf.BlueGeneL()
	m.Net.LatencyPerHop = 2e-5
	m.Net.Overhead = 1e-5
	kinds := []nestwrf.MapKind{nestwrf.MapOblivious, nestwrf.MapTXYZ, nestwrf.MapPartition, nestwrf.MapMultiLevel}
	modeled := make([]float64, len(kinds))
	functional := make([]float64, len(kinds))
	for i, kind := range kinds {
		modeled[i] = crossSimulate(t, kind, nestwrf.AllocNaivePoints)
		tm, err := nestwrf.NewTopologyTimeModel(kind, m, 32, rects)
		if err != nil {
			t.Fatal(err)
		}
		functional[i] = crossRun(t, nestwrf.StrategyConcurrent, rects, tm).MaxClock
		t.Logf("%-10v modeled %.4f s, functional %.3f ms", kind, modeled[i], 1e3*functional[i])
	}

	last := len(kinds) - 1
	if modeledGain, functionalGain := modeled[0]-modeled[last], functional[0]-functional[last]; modeledGain < 0 || functionalGain < 0 {
		t.Errorf("fold should not lose in either world: modeled %+e, functional %+e",
			modeledGain, functionalGain)
	}
	for i := range kinds {
		for j := i + 1; j < len(kinds); j++ {
			if a, b := cmp.Compare(modeled[i], modeled[j]), cmp.Compare(functional[i], functional[j]); a != b {
				t.Errorf("%v vs %v: modeled order %+d, functional order %+d", kinds[i], kinds[j], a, b)
			}
		}
	}
}

// Every allocation policy's rectangles run functionally: the forecast
// is bit-identical to the sequential run's, the concurrent run is
// faster, and the equal split — blind to the siblings' sizes — is the
// slowest policy in both worlds (Section 4.6).
func TestEveryAllocPolicyRunsFunctionally(t *testing.T) {
	seq := crossRun(t, nestwrf.StrategySequential, nil, nil)
	policies := []nestwrf.AllocPolicy{nestwrf.AllocPredicted, nestwrf.AllocNaivePoints, nestwrf.AllocEqual, nestwrf.AllocStripsPredicted}
	modeled := map[nestwrf.AllocPolicy]float64{}
	functional := map[nestwrf.AllocPolicy]float64{}
	for _, policy := range policies {
		rects := crossPlan(t, policy).Rects
		con := crossRun(t, nestwrf.StrategyConcurrent, rects, nil)
		if d := seq.Parent.MaxDiff(con.Parent); d != 0 {
			t.Errorf("%v: parent fields differ from the sequential run by %v", policy, d)
		}
		for i := range seq.Nests {
			if d := seq.Nests[i].MaxDiff(con.Nests[i]); d != 0 {
				t.Errorf("%v: nest %d fields differ from the sequential run by %v", policy, i, d)
			}
		}
		if con.MaxClock >= seq.MaxClock {
			t.Errorf("%v: concurrent makespan %.6f should beat sequential %.6f", policy, con.MaxClock, seq.MaxClock)
		}
		modeled[policy] = crossSimulate(t, nestwrf.MapOblivious, policy)
		functional[policy] = con.MaxClock
		t.Logf("%-16v %v: modeled %.4f s, functional %.3f ms (%.1f %% under sequential)",
			policy, rects, modeled[policy], 1e3*con.MaxClock, 100*(1-con.MaxClock/seq.MaxClock))
	}
	for _, policy := range policies {
		if policy == nestwrf.AllocEqual {
			continue
		}
		if modeled[policy] >= modeled[nestwrf.AllocEqual] || functional[policy] >= functional[nestwrf.AllocEqual] {
			t.Errorf("equal split should be slowest: %v modeled %.4f vs %.4f s, functional %.6f vs %.6f s", policy,
				modeled[policy], modeled[nestwrf.AllocEqual], functional[policy], functional[nestwrf.AllocEqual])
		}
	}
}

func TestPartitionsSVGFacade(t *testing.T) {
	plan, err := nestwrf.Plan(table2(), nestwrf.Options{Machine: nestwrf.BlueGeneL(), Ranks: 1024, Strategy: nestwrf.StrategyConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	svg := nestwrf.PartitionsSVG(plan)
	if !strings.HasPrefix(svg, "<svg ") {
		t.Error("not an SVG document")
	}
	if strings.Count(svg, "<rect ") != len(plan.Rects)+1 {
		t.Errorf("rect count %d for %d partitions", strings.Count(svg, "<rect "), len(plan.Rects))
	}
}

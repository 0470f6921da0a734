package driver

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/stats"
	"nestwrf/internal/workload"
)

func bglOpts(strategy Strategy, kind MapKind) Options {
	return Options{
		Machine:  machine.BGL(),
		Ranks:    1024,
		Strategy: strategy,
		MapKind:  kind,
		Alloc:    AllocPredicted,
	}
}

func mustRun(t *testing.T, cfg *nest.Domain, opt Options) Result {
	t.Helper()
	res, err := Run(cfg, opt)
	if err != nil {
		t.Fatalf("Run(%s, %v/%v): %v", cfg.Name, opt.Strategy, opt.MapKind, err)
	}
	return res
}

func TestRunErrors(t *testing.T) {
	cfg := workload.Table2Config()
	opt := bglOpts(Sequential, MapSequential)
	opt.Ranks = 0
	if _, err := Run(cfg, opt); !errors.Is(err, ErrBadRanks) {
		t.Errorf("zero ranks: %v", err)
	}
	leaf := nest.Root("leaf", 100, 100)
	if _, err := Run(leaf, bglOpts(Concurrent, MapSequential)); !errors.Is(err, ErrNoSiblings) {
		t.Errorf("no siblings: %v", err)
	}
	bad := nest.Root("bad", -1, 100)
	if _, err := Run(bad, bglOpts(Sequential, MapSequential)); err == nil {
		t.Error("invalid config should fail")
	}
}

// The central claim: concurrent execution of siblings on partitions
// beats the default sequential strategy (Section 4.3.1 reports 21%
// average, 33% maximum on 1024 BG/L cores).
func TestConcurrentBeatsSequential(t *testing.T) {
	cfg := workload.Table2Config()
	seq := mustRun(t, cfg, bglOpts(Sequential, MapSequential))
	con := mustRun(t, cfg, bglOpts(Concurrent, MapSequential))
	imp := stats.Improvement(seq.IterTime, con.IterTime)
	t.Logf("sequential %.3f s, concurrent %.3f s: %.1f%% improvement", seq.IterTime, con.IterTime, imp)
	if imp < 10 || imp > 45 {
		t.Errorf("improvement %.1f%%, want in the paper's neighbourhood (10-45%%)", imp)
	}
}

// Fig. 9: the concurrent nest phase equals the slowest sibling, and
// individual sibling step times rise on fewer processors while the
// total falls.
func TestSiblingTimesFig9Shape(t *testing.T) {
	cfg := workload.Table2Config()
	seq := mustRun(t, cfg, bglOpts(Sequential, MapSequential))
	con := mustRun(t, cfg, bglOpts(Concurrent, MapSequential))
	if len(seq.Siblings) != 4 || len(con.Siblings) != 4 {
		t.Fatalf("sibling counts: %d, %d", len(seq.Siblings), len(con.Siblings))
	}
	var seqSum, conMax float64
	for i := range seq.Siblings {
		seqSum += seq.Siblings[i].PhaseTime
		if con.Siblings[i].PhaseTime > conMax {
			conMax = con.Siblings[i].PhaseTime
		}
		// Each sibling is slower on its partition than on the full machine.
		if con.Siblings[i].StepTime <= seq.Siblings[i].StepTime {
			t.Errorf("sibling %d: partition step %.3f should exceed full-machine step %.3f",
				i, con.Siblings[i].StepTime, seq.Siblings[i].StepTime)
		}
	}
	if conMax >= seqSum {
		t.Errorf("concurrent nest phase %.3f should beat sequential sum %.3f", conMax, seqSum)
	}
	imp := stats.Improvement(seqSum, conMax)
	t.Logf("nest phases: sequential sum %.3f, concurrent max %.3f (%.1f%% gain; paper: 36%%)",
		seqSum, conMax, imp)
	if imp < 20 || imp > 55 {
		t.Errorf("sibling phase improvement %.1f%%, want ~36%% (20-55%%)", imp)
	}
}

// Load balance: with predicted allocation the sibling phase times
// should be close to each other (the goal of Section 3.2).
func TestConcurrentLoadBalance(t *testing.T) {
	cfg := workload.Table2Config()
	con := mustRun(t, cfg, bglOpts(Concurrent, MapSequential))
	var times []float64
	for _, s := range con.Siblings {
		times = append(times, s.PhaseTime)
	}
	spread := (stats.Max(times) - stats.Min(times)) / stats.Mean(times)
	t.Logf("sibling phases: %v (relative spread %.2f)", times, spread)
	if spread > 0.35 {
		t.Errorf("sibling phase spread %.2f too high for balanced allocation", spread)
	}
}

// MPI_Wait improvement (Table 1: 27-38% average on BG/L and BG/P).
func TestWaitImprovement(t *testing.T) {
	cfg := workload.Table2Config()
	seq := mustRun(t, cfg, bglOpts(Sequential, MapSequential))
	con := mustRun(t, cfg, bglOpts(Concurrent, MapSequential))
	imp := stats.Improvement(seq.WaitAvg, con.WaitAvg)
	t.Logf("wait: sequential %.3f, concurrent %.3f (%.1f%% improvement)", seq.WaitAvg, con.WaitAvg, imp)
	if imp < 15 || imp > 75 {
		t.Errorf("wait improvement %.1f%%, want in the paper's band (15-75%%)", imp)
	}
}

// Topology-aware mappings add improvement over the oblivious concurrent
// run (Table 4: up to ~7%).
func TestTopologyAwareMappings(t *testing.T) {
	cfg := workload.Table2Config()
	obl := mustRun(t, cfg, bglOpts(Concurrent, MapSequential))
	part := mustRun(t, cfg, bglOpts(Concurrent, MapPartition))
	multi := mustRun(t, cfg, bglOpts(Concurrent, MapMultiLevel))
	txyz := mustRun(t, cfg, bglOpts(Concurrent, MapTXYZ))

	t.Logf("iter: oblivious %.3f, partition %.3f, multilevel %.3f, txyz %.3f",
		obl.IterTime, part.IterTime, multi.IterTime, txyz.IterTime)
	if part.IterTime >= obl.IterTime {
		t.Errorf("partition mapping %.3f should beat oblivious %.3f", part.IterTime, obl.IterTime)
	}
	if multi.IterTime >= obl.IterTime {
		t.Errorf("multilevel mapping %.3f should beat oblivious %.3f", multi.IterTime, obl.IterTime)
	}
	// Topology-aware hop counts drop (Fig. 12(b): ~50% reduction).
	if multi.HopsAvg >= obl.HopsAvg {
		t.Errorf("multilevel hops %.2f should be below oblivious %.2f", multi.HopsAvg, obl.HopsAvg)
	}
	impPart := stats.Improvement(obl.IterTime, part.IterTime)
	impMulti := stats.Improvement(obl.IterTime, multi.IterTime)
	t.Logf("topology-aware gains over oblivious: partition %.1f%%, multilevel %.1f%% (paper: up to ~7%%)",
		impPart, impMulti)
	if impMulti > 25 {
		t.Errorf("multilevel gain %.1f%% implausibly large vs paper's ~7%%", impMulti)
	}
}

// Our predicted allocation beats the naive points-proportional strips
// (Section 4.6: 17% vs 9% over default).
func TestAllocationPolicies(t *testing.T) {
	cfg := workload.Table2Config()
	seq := mustRun(t, cfg, bglOpts(Sequential, MapSequential))

	ours := bglOpts(Concurrent, MapSequential)
	naive := ours
	naive.Alloc = AllocNaivePoints
	equal := ours
	equal.Alloc = AllocEqual

	rOurs := mustRun(t, cfg, ours)
	rNaive := mustRun(t, cfg, naive)
	rEqual := mustRun(t, cfg, equal)

	iOurs := stats.Improvement(seq.IterTime, rOurs.IterTime)
	iNaive := stats.Improvement(seq.IterTime, rNaive.IterTime)
	iEqual := stats.Improvement(seq.IterTime, rEqual.IterTime)
	t.Logf("improvement over default: ours %.1f%%, naive strips %.1f%%, equal %.1f%%", iOurs, iNaive, iEqual)
	if rOurs.IterTime >= rNaive.IterTime {
		t.Errorf("predicted allocation %.3f should beat naive strips %.3f", rOurs.IterTime, rNaive.IterTime)
	}
	if rNaive.IterTime >= seq.IterTime {
		t.Errorf("even naive strips %.3f should beat sequential %.3f", rNaive.IterTime, seq.IterTime)
	}
}

// I/O: concurrent sibling output shrinks the per-file writer groups and
// writes sibling files simultaneously (Section 4.5).
func TestIOImprovement(t *testing.T) {
	cfg := workload.Table2Config()
	mk := func(s Strategy) Options {
		o := Options{
			Machine:          machine.BGP(),
			Ranks:            4096,
			Strategy:         s,
			MapKind:          MapSequential,
			Alloc:            AllocPredicted,
			IOMode:           iosim.Collective,
			OutputEverySteps: 5,
		}
		return o
	}
	seq := mustRun(t, cfg, mk(Sequential))
	con := mustRun(t, cfg, mk(Concurrent))
	if seq.IOTime <= 0 || con.IOTime <= 0 {
		t.Fatalf("I/O times: %v, %v", seq.IOTime, con.IOTime)
	}
	if con.IOTime >= seq.IOTime {
		t.Errorf("concurrent I/O %.3f should beat sequential %.3f", con.IOTime, seq.IOTime)
	}
	imp := stats.Improvement(seq.IOTime, con.IOTime)
	t.Logf("I/O per iteration: sequential %.3f, concurrent %.3f (%.1f%%)", seq.IOTime, con.IOTime, imp)
	if seq.Total() <= seq.IterTime {
		t.Error("Total should include I/O")
	}
}

// Two-level SE-Asia configurations must run under both strategies.
func TestTwoLevelConfigs(t *testing.T) {
	for _, cfg := range workload.SEAsiaSuite() {
		if cfg.Depth() != 2 {
			continue
		}
		seq := mustRun(t, cfg, bglOpts(Sequential, MapSequential))
		con := mustRun(t, cfg, bglOpts(Concurrent, MapSequential))
		if seq.IterTime <= 0 || con.IterTime <= 0 {
			t.Fatalf("%s: nonpositive times %v %v", cfg.Name, seq.IterTime, con.IterTime)
		}
		t.Logf("%s: sequential %.3f, concurrent %.3f", cfg.Name, seq.IterTime, con.IterTime)
	}
}

// Larger nests gain less from partitioning at fixed machine size
// (Table 3) because their scalability saturates later.
func TestGainShrinksWithNestSize(t *testing.T) {
	fams := workload.Table3Configs()
	opts := func(s Strategy) Options {
		o := Options{Machine: machine.BGP(), Ranks: 8192, Strategy: s, MapKind: MapSequential, Alloc: AllocPredicted}
		return o
	}
	imp := map[string]float64{}
	for name, cfg := range fams {
		seq := mustRun(t, cfg, opts(Sequential))
		con := mustRun(t, cfg, opts(Concurrent))
		imp[name] = stats.Improvement(seq.IterTime, con.IterTime)
		t.Logf("%s: %.1f%% improvement", name, imp[name])
	}
	if !(imp["205x223"] > imp["925x820"]) {
		t.Errorf("small nests (%.1f%%) should gain more than large nests (%.1f%%)",
			imp["205x223"], imp["925x820"])
	}
}

// Determinism: the same run twice gives identical results.
// Run must not write anything back into the caller's Options
// (regression: allocate() used to store the predictor it trained
// through the *Options pointer, a data race once two runs share an
// Options value).
func TestRunLeavesOptionsUnchanged(t *testing.T) {
	cfg := workload.Table2Config()
	for _, alloc := range []AllocPolicy{AllocPredicted, AllocStripsPredicted} {
		opt := bglOpts(Concurrent, MapMultiLevel)
		opt.Alloc = alloc
		before := opt
		if _, err := Run(cfg, opt); err != nil {
			t.Fatalf("%v: %v", alloc, err)
		}
		if !reflect.DeepEqual(opt, before) {
			t.Errorf("%v: Options mutated by Run:\nbefore %+v\nafter  %+v", alloc, before, opt)
		}
	}
}

// A single Options value must be safe to share across concurrent Runs
// (go test -race makes this a real hazard check).
func TestConcurrentRunsShareOptions(t *testing.T) {
	cfg := workload.Table2Config()
	opt := bglOpts(Concurrent, MapSequential)
	results := make([]Result, 4)
	done := make(chan error, len(results))
	for i := range results {
		go func(i int) {
			res, err := Run(cfg, opt)
			results[i] = res
			done <- err
		}(i)
	}
	for range results {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(results); i++ {
		if results[i].IterTime != results[0].IterTime {
			t.Errorf("run %d iter time %v != run 0 %v (determinism lost)", i, results[i].IterTime, results[0].IterTime)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := workload.Table2Config()
	a := mustRun(t, cfg, bglOpts(Concurrent, MapMultiLevel))
	b := mustRun(t, cfg, bglOpts(Concurrent, MapMultiLevel))
	if a.IterTime != b.IterTime || a.WaitAvg != b.WaitAvg || a.HopsAvg != b.HopsAvg {
		t.Error("identical runs differ")
	}
}

// Non-power-of-two rank counts still produce valid grids, tori and
// runs.
func TestOddRankCounts(t *testing.T) {
	cfg := workload.Table2Config()
	for _, ranks := range []int{96, 384, 768, 1536} {
		opt := bglOpts(Concurrent, MapSequential)
		opt.Ranks = ranks
		res := mustRun(t, cfg, opt)
		if res.IterTime <= 0 {
			t.Errorf("ranks=%d: iter time %v", ranks, res.IterTime)
		}
		total := 0
		for _, r := range res.Rects {
			total += r.Area()
		}
		if total != ranks {
			t.Errorf("ranks=%d: partitions cover %d", ranks, total)
		}
	}
}

// In the concurrent strategy, a two-level config's grandchildren are
// partitioned within their parent sibling's rectangle.
func TestSecondLevelPartitioning(t *testing.T) {
	cfg := nest.Root("p", 340, 360)
	mid := cfg.AddChild("mid", 600, 540, 3, 60, 80)
	mid.AddChild("inner1", 280, 240, 3, 40, 50)
	mid.AddChild("inner2", 260, 220, 3, 320, 280)

	con := mustRun(t, cfg, bglOpts(Concurrent, MapSequential))
	// One first-level sibling: its rect is the whole grid; recursion
	// handles the two inner domains. The sibling metrics list the first
	// level only.
	if len(con.Siblings) != 1 {
		t.Fatalf("first-level siblings = %d", len(con.Siblings))
	}
	if con.Siblings[0].Rect.Area() != 1024 {
		t.Errorf("single sibling should get the full grid, got %v", con.Siblings[0].Rect)
	}
	// The step time of the mid domain must include its children's phases:
	// clearly larger than a childless domain of the same size.
	bare := nest.Root("p", 340, 360)
	bare.AddChild("mid", 600, 540, 3, 60, 80)
	bcon := mustRun(t, bare, bglOpts(Concurrent, MapSequential))
	if con.Siblings[0].StepTime <= bcon.Siblings[0].StepTime {
		t.Errorf("two-level step %.3f should exceed childless step %.3f",
			con.Siblings[0].StepTime, bcon.Siblings[0].StepTime)
	}
}

func TestTraceIteration(t *testing.T) {
	cfg := workload.Table2Config()
	seq := mustRun(t, cfg, bglOpts(Sequential, MapSequential))
	con := mustRun(t, cfg, bglOpts(Concurrent, MapSequential))

	seqLog := TraceIteration(seq, Sequential)
	// Sequential: one lane, 5 spans (parent + 4 siblings).
	if lanes := seqLog.Lanes(); len(lanes) != 1 || lanes[0] != "all ranks" {
		t.Errorf("sequential lanes = %v", lanes)
	}
	if len(seqLog.Spans) != 5 {
		t.Errorf("sequential spans = %d, want 5", len(seqLog.Spans))
	}
	if d := seqLog.Duration(); d > seq.IterTime*1.001 || d < seq.IterTime*0.999 {
		t.Errorf("sequential trace duration %v != iter time %v", d, seq.IterTime)
	}

	conLog := TraceIteration(con, Concurrent)
	// Concurrent: the all-ranks lane plus one lane per partition.
	if lanes := conLog.Lanes(); len(lanes) != 5 {
		t.Errorf("concurrent lanes = %v", lanes)
	}
	if d := conLog.Duration(); d > con.IterTime*1.001 {
		t.Errorf("concurrent trace duration %v exceeds iter time %v", d, con.IterTime)
	}
	// Rendering works and shows all sibling names.
	out := conLog.Render(72)
	for _, s := range con.Siblings {
		prefix := s.Name
		if len(prefix) > 8 {
			prefix = prefix[:8]
		}
		if !strings.Contains(out, prefix) {
			t.Errorf("trace render missing %q:\n%s", prefix, out)
		}
	}
}

func TestStringers(t *testing.T) {
	if Sequential.String() != "sequential" || Concurrent.String() != "concurrent" {
		t.Error("strategy strings")
	}
	for k, want := range map[MapKind]string{
		MapSequential: "oblivious", MapTXYZ: "txyz", MapPartition: "partition", MapMultiLevel: "multilevel",
	} {
		if k.String() != want {
			t.Errorf("%v = %q", k, k.String())
		}
	}
	for p, want := range map[AllocPolicy]string{
		AllocPredicted: "predicted", AllocNaivePoints: "naive-points", AllocEqual: "equal",
	} {
		if p.String() != want {
			t.Errorf("%v = %q", p, p.String())
		}
	}
	if MapKind(9).String() == "" || AllocPolicy(9).String() == "" {
		t.Error("unknown stringers empty")
	}
}

// Stress: eight siblings on one rack still tile, run and win.
func TestEightSiblings(t *testing.T) {
	cfg := nest.Root("p", 286, 307)
	rng := []struct{ nx, ny, ox, oy int }{
		{160, 180, 0, 0}, {170, 150, 70, 0}, {150, 160, 140, 0}, {180, 170, 210, 0},
		{160, 160, 0, 120}, {150, 180, 70, 120}, {170, 170, 140, 120}, {160, 150, 210, 120},
	}
	for i, s := range rng {
		cfg.AddChild(fmt.Sprintf("s%d", i), s.nx, s.ny, 3, s.ox, s.oy)
	}
	seq := mustRun(t, cfg, bglOpts(Sequential, MapSequential))
	con := mustRun(t, cfg, bglOpts(Concurrent, MapMultiLevel))
	if len(con.Rects) != 8 {
		t.Fatalf("rects = %d", len(con.Rects))
	}
	imp := stats.Improvement(seq.IterTime, con.IterTime)
	t.Logf("8 siblings: %.1f%% improvement", imp)
	if imp < 25 {
		t.Errorf("8-sibling improvement %.1f%% suspiciously low", imp)
	}
}

// A sibling bigger than the machine can balance (extreme skew) still
// works: allocation clamps to feasible rectangles.
func TestExtremeSkew(t *testing.T) {
	cfg := nest.Root("p", 640, 660)
	cfg.AddChild("huge", 925, 850, 3, 10, 10)
	cfg.AddChild("tiny", 100, 120, 3, 500, 500)
	res := mustRun(t, cfg, bglOpts(Concurrent, MapSequential))
	if res.Siblings[0].Ranks <= res.Siblings[1].Ranks {
		t.Errorf("huge sibling got %d ranks vs tiny's %d",
			res.Siblings[0].Ranks, res.Siblings[1].Ranks)
	}
}

// Validate must reject the option shapes that turn derived arithmetic
// (campaign redistribution, ensemble aggregates) into Inf/NaN.
func TestOptionsValidate(t *testing.T) {
	good := Options{Machine: machine.BGL(), Ranks: 256}
	if err := good.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	bad := good
	bad.Ranks = 0
	if err := bad.Validate(); !errors.Is(err, ErrBadRanks) {
		t.Errorf("zero ranks: %v", err)
	}
	bad = good
	bad.Machine.Net.Bandwidth = 0
	if err := bad.Validate(); !errors.Is(err, ErrBadMachine) {
		t.Errorf("zero bandwidth: %v", err)
	}
	bad = good
	bad.Machine.Net.Bandwidth = math.NaN()
	if err := bad.Validate(); !errors.Is(err, ErrBadMachine) {
		t.Errorf("NaN bandwidth: %v", err)
	}
	// Everything netsim.Params.Validate refuses, NaN included.
	for _, spoil := range []func(*Options){
		func(o *Options) { o.Machine.Net.LatencyPerHop = 0 },
		func(o *Options) { o.Machine.Net.LatencyPerHop = math.NaN() },
		func(o *Options) { o.Machine.Net.Overhead = -1 },
		func(o *Options) { o.Machine.Net.Overhead = math.NaN() },
	} {
		bad = good
		spoil(&bad)
		if err := bad.Validate(); !errors.Is(err, ErrBadMachine) || !errors.Is(err, netsim.ErrBadParams) {
			t.Errorf("%+v: %v, want ErrBadMachine wrapping netsim.ErrBadParams", bad.Machine.Net, err)
		}
	}
}

package nestwrf_test

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"nestwrf"
	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
)

func table2() *nestwrf.Domain {
	cfg := nestwrf.NewDomain("pacific", 286, 307)
	cfg.AddChild("sibling1", 394, 418, 3, 5, 5)
	cfg.AddChild("sibling2", 232, 202, 3, 150, 10)
	cfg.AddChild("sibling3", 232, 256, 3, 10, 160)
	cfg.AddChild("sibling4", 313, 337, 3, 140, 150)
	return cfg
}

func TestPlanPipeline(t *testing.T) {
	plan, err := nestwrf.Plan(table2(), nestwrf.Options{Machine: nestwrf.BlueGeneL(), Ranks: 1024, Strategy: nestwrf.StrategyConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Px*plan.Py != 1024 {
		t.Errorf("grid %dx%d", plan.Px, plan.Py)
	}
	var sum float64
	for _, w := range plan.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum %v", sum)
	}
	if len(plan.Rects) != 4 {
		t.Fatalf("rects = %v", plan.Rects)
	}
	area := 0
	for _, r := range plan.Rects {
		area += r.Area()
	}
	if area != 1024 {
		t.Errorf("partition areas cover %d of 1024", area)
	}
	// All four mappings are feasible at this size.
	for _, name := range []string{"oblivious", "txyz", "partition", "multilevel"} {
		rep, ok := plan.Mapping[name]
		if !ok {
			t.Errorf("missing mapping report %q", name)
			continue
		}
		if rep.OverallAvgHops <= 0 {
			t.Errorf("%s: overall hops %v", name, rep.OverallAvgHops)
		}
	}
	if plan.Mapping["multilevel"].OverallAvgHops >=
		plan.Mapping["oblivious"].OverallAvgHops {
		t.Error("multilevel mapping should reduce average hops")
	}
}

// Plan partitions with the requested allocation policy: under
// AllocEqual its rectangles are the equal strips, not Algorithm 1's.
func TestPlanHonoursAllocPolicy(t *testing.T) {
	opt := nestwrf.Options{Machine: nestwrf.BlueGeneL(), Ranks: 1024, Strategy: nestwrf.StrategyConcurrent}
	predicted, err := nestwrf.Plan(table2(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Alloc = nestwrf.AllocEqual
	equal, err := nestwrf.Plan(table2(), opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := alloc.EqualSplit(len(table2().Children), equal.Px, equal.Py)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(equal.Rects, want) || equal.Alloc != nestwrf.AllocEqual {
		t.Errorf("AllocEqual plan: %v rects %v, want EqualSplit's %v", equal.Alloc, equal.Rects, want)
	}
	if slices.Equal(predicted.Rects, want) {
		t.Errorf("AllocPredicted plan has the equal strips %v", want)
	}
}

func TestPlanRejectsInvalidConfig(t *testing.T) {
	bad := nestwrf.NewDomain("bad", -3, 10)
	if _, err := nestwrf.Plan(bad, nestwrf.Options{Machine: nestwrf.BlueGeneL(), Ranks: 64}); err == nil {
		t.Error("invalid domain should fail")
	}
}

// A caller-built machine whose network the cost model cannot build is
// refused with driver.ErrBadMachine (regression: Simulate and Plan
// panicked in the model layer on zero bandwidth or latency).
func TestSimulateRejectsBadMachine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(*nestwrf.Machine)
	}{
		{"zero bandwidth", func(m *nestwrf.Machine) { m.Net.Bandwidth = 0 }},
		{"zero latency", func(m *nestwrf.Machine) { m.Net.LatencyPerHop = 0 }},
		{"NaN latency", func(m *nestwrf.Machine) { m.Net.LatencyPerHop = math.NaN() }},
		{"negative overhead", func(m *nestwrf.Machine) { m.Net.Overhead = -1e-6 }},
	} {
		m := nestwrf.BlueGeneL()
		tc.spoil(&m)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: panicked: %v", tc.name, p)
				}
			}()
			opt := nestwrf.Options{Machine: m, Ranks: 256, Strategy: nestwrf.StrategyConcurrent}
			if _, err := nestwrf.Simulate(table2(), opt); !errors.Is(err, driver.ErrBadMachine) {
				t.Errorf("%s: Simulate error %v, want ErrBadMachine", tc.name, err)
			}
			if _, err := nestwrf.Plan(table2(), opt); !errors.Is(err, driver.ErrBadMachine) {
				t.Errorf("%s: Plan error %v, want ErrBadMachine", tc.name, err)
			}
		}()
	}
}

func TestCompareHeadlineResult(t *testing.T) {
	cmp, err := nestwrf.Compare(table2(), nestwrf.Options{
		Machine: nestwrf.BlueGeneL(),
		Ranks:   1024,
		MapKind: nestwrf.MapMultiLevel,
		Alloc:   nestwrf.AllocPredicted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ImprovementPct < 10 || cmp.ImprovementPct > 50 {
		t.Errorf("improvement %.1f%% out of expected band", cmp.ImprovementPct)
	}
	if cmp.WaitImprovementPct <= 0 {
		t.Errorf("wait improvement %.1f%% should be positive", cmp.WaitImprovementPct)
	}
	if cmp.Concurrent.IterTime >= cmp.Default.IterTime {
		t.Error("concurrent should beat default")
	}
}

func TestSimulateDirect(t *testing.T) {
	res, err := nestwrf.Simulate(table2(), nestwrf.Options{
		Machine:  nestwrf.BlueGeneL(),
		Ranks:    1024,
		Strategy: nestwrf.StrategyConcurrent,
		MapKind:  nestwrf.MapPartition,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime <= 0 || len(res.Siblings) != 4 {
		t.Errorf("result = %+v", res)
	}
}

func TestRunFunctionalSmoke(t *testing.T) {
	cfg := nestwrf.NewDomain("parent", 48, 48)
	cfg.AddChild("nest", 36, 36, 3, 4, 4)
	out, err := nestwrf.RunFunctional(cfg, nestwrf.FunctionalOptions{
		Ranks:    8,
		Steps:    2,
		Strategy: nestwrf.StrategyConcurrent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Parent == nil || out.Nests[0] == nil {
		t.Fatal("missing functional states")
	}
	if out.MaxClock <= 0 {
		t.Error("no virtual time elapsed")
	}
}

func TestRunCampaign(t *testing.T) {
	res, err := nestwrf.RunCampaign(nestwrf.TyphoonSeason(10), nestwrf.Options{
		Machine: nestwrf.BlueGeneL(),
		Ranks:   1024,
		MapKind: nestwrf.MapMultiLevel,
		Alloc:   nestwrf.AllocPredicted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 5 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	if res.ImprovementPct() <= 0 {
		t.Errorf("campaign improvement %.1f%% should be positive", res.ImprovementPct())
	}
}

func TestForecastFacadeRoundTrip(t *testing.T) {
	cfg := nestwrf.NewDomain("parent", 32, 32)
	cfg.AddChild("nest", 24, 24, 3, 4, 4)
	out, err := nestwrf.RunFunctional(cfg, nestwrf.FunctionalOptions{
		Ranks:    4,
		Steps:    2,
		Strategy: nestwrf.StrategySequential,
		Params:   nestwrf.GeophysicalSolverParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nestwrf.EncodeForecast(&buf, "parent", 2, out.Parent); err != nil {
		t.Fatal(err)
	}
	domain, step, st, err := nestwrf.DecodeForecast(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if domain != "parent" || step != 2 || st.NX != 32 {
		t.Errorf("decoded %q step %d %dx%d", domain, step, st.NX, st.NY)
	}
	if d := st.MaxDiff(out.Parent); d != 0 {
		t.Errorf("round trip differs by %v", d)
	}
	if err := nestwrf.WriteForecastPGM(&buf, st, nestwrf.FieldHeight); err != nil {
		t.Fatal(err)
	}
	if art := nestwrf.ForecastASCII(st, nestwrf.FieldSpeed, 20); art == "" {
		t.Error("empty ASCII art")
	}
}

func TestRenderMappingFacade(t *testing.T) {
	for _, kind := range []nestwrf.MapKind{
		nestwrf.MapOblivious, nestwrf.MapTXYZ, nestwrf.MapMultiLevel,
	} {
		art, err := nestwrf.RenderMapping(kind, nestwrf.BlueGeneL(), 32, nil)
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		if !strings.Contains(art, "z=1") {
			t.Errorf("kind %v: render missing planes:\n%s", kind, art)
		}
	}
	rects := []nestwrf.Rect{{X: 0, Y: 0, W: 4, H: 4}, {X: 4, Y: 0, W: 4, H: 4}}
	if _, err := nestwrf.RenderMapping(nestwrf.MapPartition, nestwrf.BlueGeneL(), 32, rects); err != nil {
		t.Fatal(err)
	}
	if _, err := nestwrf.RenderMapping(nestwrf.MapOblivious, nestwrf.BlueGeneL(), 0, nil); err == nil {
		t.Error("zero ranks should fail")
	}
}

func TestTraceIterationFacade(t *testing.T) {
	res, err := nestwrf.Simulate(table2(), nestwrf.Options{
		Machine:  nestwrf.BlueGeneL(),
		Ranks:    1024,
		Strategy: nestwrf.StrategyConcurrent,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := nestwrf.TraceIteration(res, nestwrf.StrategyConcurrent)
	if len(log.Spans) != 5 {
		t.Errorf("spans = %d, want parent + 4 siblings", len(log.Spans))
	}
	if !strings.Contains(log.Render(60), "sibling1") {
		t.Error("render missing sibling")
	}
}

// TestObservabilityFacade drives the new run-report, metrics and
// Chrome-trace surface through the public API only.
func TestObservabilityFacade(t *testing.T) {
	reg := nestwrf.NewMetricsRegistry()
	opt := nestwrf.Options{
		Machine: nestwrf.BlueGeneL(),
		Ranks:   1024,
		MapKind: nestwrf.MapMultiLevel,
		Metrics: reg,
	}
	cmp, rep, err := nestwrf.CompareWithReport(table2(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Default == nil || rep.Concurrent == nil {
		t.Fatalf("comparison report missing runs: %+v", rep)
	}
	if rep.ImprovementPct != cmp.ImprovementPct {
		t.Errorf("report improvement %v != comparison %v", rep.ImprovementPct, cmp.ImprovementPct)
	}
	if len(rep.Concurrent.Siblings) != 4 {
		t.Errorf("siblings = %+v", rep.Concurrent.Siblings)
	}
	for _, s := range rep.Concurrent.Siblings {
		if s.PredictedShare <= 0 || s.PhaseSeconds <= 0 {
			t.Errorf("sibling %s missing prediction data: %+v", s.Name, s)
		}
	}

	var buf bytes.Buffer
	err = nestwrf.WriteChromeTrace(&buf,
		nestwrf.TraceProcess{Name: "sequential", Log: nestwrf.TraceIteration(cmp.Default, nestwrf.StrategySequential)},
		nestwrf.TraceProcess{Name: "concurrent", Log: nestwrf.TraceIteration(cmp.Concurrent, nestwrf.StrategyConcurrent)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) || !strings.Contains(buf.String(), "sibling1") {
		t.Errorf("chrome trace missing content: %s", buf.String()[:200])
	}

	if text := reg.Snapshot().Text(); !strings.Contains(text, "driver_runs_total") {
		t.Errorf("metrics registry empty:\n%s", text)
	}
}

func TestParseIOModeFacade(t *testing.T) {
	m, err := nestwrf.ParseIOMode("split")
	if err != nil || m != nestwrf.IOSplit {
		t.Errorf("ParseIOMode(split) = %v, %v", m, err)
	}
	if _, err := nestwrf.ParseIOMode("hdf5"); err == nil {
		t.Error("unknown mode accepted")
	}
}

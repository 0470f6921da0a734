package driver

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"nestwrf/internal/iosim"
	"nestwrf/internal/metrics"
	"nestwrf/internal/workload"
)

func TestRunWithReportMatchesRun(t *testing.T) {
	cfg := workload.Table2Config()
	opt := bglOpts(Concurrent, MapMultiLevel)
	plain := mustRun(t, cfg, opt)
	res, rep, err := RunWithReport(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Errorf("observed run differs from plain run:\n plain %+v\n obs   %+v", plain, res)
	}
	if rep == nil || rep.Schema != ReportSchema {
		t.Fatalf("report = %+v", rep)
	}
}

func TestReportPhaseBreakdownSequential(t *testing.T) {
	cfg := workload.Table2Config()
	_, rep, err := RunWithReport(cfg, bglOpts(Sequential, MapSequential))
	if err != nil {
		t.Fatal(err)
	}
	// Every domain appears, parent first (domain-tree order).
	if len(rep.Phases) != 5 || rep.Phases[0].Domain != cfg.Name {
		t.Fatalf("phases = %+v", rep.Phases)
	}
	// In the sequential strategy every sub-step serializes, so the
	// compute+transfer+wait+coupling totals reconstruct the iteration
	// time exactly.
	var sum float64
	for _, p := range rep.Phases {
		if p.ComputeSeconds <= 0 || p.TransferSeconds <= 0 {
			t.Errorf("phase %s has empty breakdown: %+v", p.Domain, p)
		}
		if p.WaitSeconds < 0 {
			t.Errorf("phase %s has negative wait: %+v", p.Domain, p)
		}
		sum += p.ComputeSeconds + p.TransferSeconds + p.WaitSeconds + p.CouplingSeconds
	}
	if math.Abs(sum-rep.Totals.IterSeconds) > 1e-9*rep.Totals.IterSeconds {
		t.Errorf("phase breakdown sums to %v, IterSeconds %v", sum, rep.Totals.IterSeconds)
	}
	// Sub-step counts follow the refinement ratio.
	if rep.Phases[0].Steps != 1 || rep.Phases[1].Steps != 3 {
		t.Errorf("steps = %v / %v, want 1 / 3", rep.Phases[0].Steps, rep.Phases[1].Steps)
	}
}

func TestReportSiblingsPredictedVsRealized(t *testing.T) {
	cfg := workload.Table2Config()
	_, rep, err := RunWithReport(cfg, bglOpts(Concurrent, MapMultiLevel))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Siblings) != len(cfg.Children) {
		t.Fatalf("siblings = %+v", rep.Siblings)
	}
	var predSum, realSum float64
	for _, s := range rep.Siblings {
		if s.PredictedShare <= 0 || s.RealizedShare <= 0 || s.PhaseSeconds <= 0 {
			t.Errorf("sibling %s has empty prediction data: %+v", s.Name, s)
		}
		predSum += s.PredictedShare
		realSum += s.RealizedShare
		wantErr := 100 * math.Abs(s.PredictedShare-s.RealizedShare) / s.RealizedShare
		if math.Abs(s.PredictionErrorPct-wantErr) > 1e-9 {
			t.Errorf("sibling %s error = %v, want %v", s.Name, s.PredictionErrorPct, wantErr)
		}
		if s.Rect.Area() != s.Ranks {
			t.Errorf("sibling %s rect %v does not match ranks %d", s.Name, s.Rect, s.Ranks)
		}
	}
	if math.Abs(predSum-1) > 1e-9 || math.Abs(realSum-1) > 1e-9 {
		t.Errorf("shares sum to %v predicted / %v realized, want 1", predSum, realSum)
	}
	// Realized share is the work share (phase time x ranks), which
	// undoes the allocator's proportional partitioning; on the paper's
	// configuration the residual error is the integer-granularity
	// effect of rectangle splitting and stays within ~10 %.
	for _, s := range rep.Siblings {
		if s.PredictionErrorPct > 15 {
			t.Errorf("sibling %s prediction error %.1f%% is implausibly large", s.Name, s.PredictionErrorPct)
		}
	}
}

func TestReportCongestion(t *testing.T) {
	cfg := workload.Table2Config()
	_, rep, err := RunWithReport(cfg, bglOpts(Concurrent, MapMultiLevel))
	if err != nil {
		t.Fatal(err)
	}
	var sibPhase bool
	for _, c := range rep.Congestion {
		if strings.HasPrefix(c.Phase, "siblings(") {
			sibPhase = true
			if c.MaxLoad < 1 || c.Links == 0 || len(c.Histogram) == 0 {
				t.Errorf("sibling congestion looks empty: %+v", c)
			}
		}
	}
	if !sibPhase {
		t.Errorf("no sibling-phase congestion recorded: %+v", rep.Congestion)
	}

	// The no-contention ablation cannot observe congestion.
	opt := bglOpts(Concurrent, MapMultiLevel)
	opt.NoContention = true
	_, rep, err = RunWithReport(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Congestion) != 0 {
		t.Errorf("NoContention run recorded congestion: %+v", rep.Congestion)
	}
}

func TestReportIOEvents(t *testing.T) {
	cfg := workload.Table2Config()
	opt := bglOpts(Concurrent, MapMultiLevel)
	opt.OutputEverySteps = 10
	opt.IOMode = iosim.Collective
	_, rep, err := RunWithReport(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.OutputEverySteps != 10 || rep.Config.IOMode == "" {
		t.Errorf("config = %+v", rep.Config)
	}
	if len(rep.IO) != 5 { // parent + 4 siblings
		t.Fatalf("io events = %+v", rep.IO)
	}
	if rep.IO[0].Domain != cfg.Name || rep.IO[0].Writers != opt.Ranks {
		t.Errorf("parent write = %+v", rep.IO[0])
	}
	for _, w := range rep.IO[1:] {
		if w.Writers >= opt.Ranks || w.Bytes <= 0 || w.Seconds <= 0 {
			t.Errorf("sibling write = %+v", w)
		}
	}
}

// TestReportJSONRoundTrip is the schema stability test: encode →
// decode → deep-equal, for both the run report and the comparison
// report.
func TestReportJSONRoundTrip(t *testing.T) {
	cfg := workload.Table2Config()
	opt := bglOpts(Concurrent, MapMultiLevel)
	opt.OutputEverySteps = 10
	opt.IOMode = iosim.Collective
	_, con, err := RunWithReport(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := con.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(con, back) {
		t.Errorf("report round-trip mismatch:\n in  %+v\n out %+v", con, back)
	}

	_, def, err := RunWithReport(cfg, bglOpts(Sequential, MapSequential))
	if err != nil {
		t.Fatal(err)
	}
	cr := NewComparisonReport(def, con)
	buf.Reset()
	if err := cr.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	crBack, err := DecodeComparisonReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr, crBack) {
		t.Errorf("comparison round-trip mismatch")
	}
	if cr.ImprovementPct <= 0 {
		t.Errorf("expected concurrent improvement, got %v", cr.ImprovementPct)
	}

	// Wrong schema is rejected.
	if _, err := DecodeReport(strings.NewReader(`{"schema":"bogus/v9"}`)); err == nil {
		t.Error("bogus schema accepted")
	}
	if _, err := DecodeComparisonReport(strings.NewReader(`{"schema":"bogus/v9"}`)); err == nil {
		t.Error("bogus comparison schema accepted")
	}
}

func TestRunRecordsMetrics(t *testing.T) {
	cfg := workload.Table2Config()
	opt := bglOpts(Concurrent, MapMultiLevel)
	opt.Metrics = metrics.NewRegistry()
	if _, err := Run(cfg, opt); err != nil {
		t.Fatal(err)
	}
	s := opt.Metrics.Snapshot()
	text := s.Text()
	for _, want := range []string{
		"driver_runs_total", "driver_iter_seconds", "driver_phase_seconds",
		"netsim_link_load_bucket", "netsim_max_link_load",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSummaryQuantiles(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("lat") // DefaultQuantiles: p10/p50/p90
	// A deterministic non-monotonic stream over 1..1000 (linear
	// congruential walk), so the P² estimators see shuffled data.
	v := 1
	for i := 0; i < 1000; i++ {
		s.Observe(float64(v))
		v = (v*31 + 17) % 1000
	}
	snap := r.Snapshot()
	if len(snap.Summaries) != 1 {
		t.Fatalf("got %d summaries, want 1", len(snap.Summaries))
	}
	sv := snap.Summaries[0]
	if sv.Name != "lat" || sv.Count != 1000 {
		t.Fatalf("summary = %+v, want name lat count 1000", sv)
	}
	if len(sv.Quantiles) != len(DefaultQuantiles) {
		t.Fatalf("got %d quantiles, want %d", len(sv.Quantiles), len(DefaultQuantiles))
	}
	for _, q := range sv.Quantiles {
		// P² is an estimator; for ~uniform data over [0,1000) the
		// estimate should land well within 10% of the true quantile.
		want := q.Quantile * 1000
		if math.Abs(q.Value-want) > 100 {
			t.Errorf("p%g = %g, want ~%g", 100*q.Quantile, q.Value, want)
		}
	}
}

func TestSummaryNilAndNaN(t *testing.T) {
	var nilReg *Registry
	nilReg.Summary("x").Observe(1) // must not panic

	var nilSum *Summary
	nilSum.Observe(2) // must not panic

	r := NewRegistry()
	s := r.Summary("y")
	s.Observe(math.NaN())
	if sv := r.Snapshot().Summaries[0]; sv.Count != 0 {
		t.Fatalf("NaN observed: %+v", sv)
	}
}

func TestSummaryReusesFirstQuantiles(t *testing.T) {
	r := NewRegistry()
	if a, b := r.Summary("q", L("k", "v")), r.Summary("q", L("k", "v")); a != b {
		t.Fatal("same identity returned distinct summaries")
	}
}

func TestSummaryTextRendering(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("req_seconds", L("endpoint", "plan"))
	for i := 1; i <= 10; i++ {
		s.Observe(float64(i))
	}
	text := r.Snapshot().Text()
	for _, want := range []string{
		`req_seconds{endpoint="plan",quantile="0.1"}`,
		`req_seconds{endpoint="plan",quantile="0.5"}`,
		`req_seconds{endpoint="plan",quantile="0.9"}`,
		`req_seconds_sum{endpoint="plan"} 55`,
		`req_seconds_count{endpoint="plan"} 10`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
}

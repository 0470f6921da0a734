package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total", L("strategy", "concurrent"))
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	if again := r.Counter("runs_total", L("strategy", "concurrent")); again != c {
		t.Fatal("same identity should return the same counter")
	}
	if other := r.Counter("runs_total", L("strategy", "sequential")); other == c {
		t.Fatal("different labels should return a different counter")
	}

	g := r.Gauge("iter_seconds")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("a", "1"), L("b", "2"))
	b := r.Counter("x", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order must not change instrument identity")
	}
}

// labelID builds its pairs without fmt; they must stay the bytes of
// fmt's "%s=%q" for any value, escapes and invalid UTF-8 included.
func TestLabelIDMatchesFmt(t *testing.T) {
	values := []string{"", "plain", `q"uote`, `back\slash`, "tab\tnl\n", "\x00\x7f", "\xff\xfe", "héllo", "\u2028", "😀"}
	f := func(v string) bool { values = append(values, v); return true }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if got, want := labelID([]Label{L("k", v)}), fmt.Sprintf("%s=%q", "k", v); got != want {
			t.Errorf("labelID(%q) = %s, want %s", v, got, want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("load", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(s.Histograms))
	}
	hv := s.Histograms[0]
	want := []BucketValue{{1, 2}, {2, 2}, {4, 2}}
	if !reflect.DeepEqual(hv.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", hv.Buckets, want)
	}
	if hv.Overflow != 2 {
		t.Fatalf("overflow = %d, want 2", hv.Overflow)
	}
	if hv.Count != 8 || hv.Sum != 117 {
		t.Fatalf("count/sum = %d/%g, want 8/117", hv.Count, hv.Sum)
	}
}

// TestConcurrentInstruments hammers one counter, gauge and histogram
// from many goroutines; run under -race this is the package's
// thread-safety regression test, and the totals check that no update
// is lost.
func TestConcurrentInstruments(t *testing.T) {
	const goroutines = 16
	const perG = 1000
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				// Identity lookups race with updates and snapshots.
				r.Counter("ops").Inc()
				r.Gauge("level", L("g", "x")).Add(1)
				r.Histogram("obs", []float64{10, 100}).Observe(float64(j % 150))
				if j%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("ops").Value(); got != goroutines*perG {
		t.Fatalf("counter = %g, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("level", L("g", "x")).Value(); got != goroutines*perG {
		t.Fatalf("gauge = %g, want %d", got, goroutines*perG)
	}
	s := r.Snapshot()
	h := s.Histograms[0]
	var total uint64 = h.Overflow
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != goroutines*perG || h.Count != goroutines*perG {
		t.Fatalf("histogram total = %d (count %d), want %d", total, h.Count, goroutines*perG)
	}
}

// TestSnapshotIsolation mutates a snapshot and checks the registry is
// unaffected, then mutates the registry and checks the snapshot is
// unaffected.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("k", "v")).Add(1)
	r.Histogram("h", []float64{1, 2}).Observe(1)

	s := r.Snapshot()
	s.Counters[0].Value = 999
	s.Counters[0].Labels[0] = L("k", "mutated")
	s.Histograms[0].Buckets[0].Count = 999

	if got := r.Counter("c", L("k", "v")).Value(); got != 1 {
		t.Fatalf("registry counter changed to %g after snapshot mutation", got)
	}
	s2 := r.Snapshot()
	if s2.Counters[0].Value != 1 || s2.Counters[0].Labels[0].Value != "v" {
		t.Fatalf("fresh snapshot sees mutation: %+v", s2.Counters[0])
	}
	if s2.Histograms[0].Buckets[0].Count != 1 {
		t.Fatalf("fresh snapshot histogram sees mutation: %+v", s2.Histograms[0])
	}

	// The other direction: registry updates must not leak into the
	// already-taken snapshot.
	before := s2.Counters[0].Value
	r.Counter("c", L("k", "v")).Add(5)
	if s2.Counters[0].Value != before {
		t.Fatal("snapshot changed after registry update")
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", []float64{1}).Observe(2)
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	if s.Text() != "" {
		t.Fatalf("nil registry text not empty: %q", s.Text())
	}
}

func TestTextAndJSONRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", L("strategy", "concurrent")).Add(2)
	r.Gauge("iter_seconds").Set(1.25)
	h := r.Histogram("link_load", []float64{1, 4})
	h.Observe(1)
	h.Observe(8)
	s := r.Snapshot()

	text := s.Text()
	for _, want := range []string{
		`runs_total{strategy="concurrent"} 2`,
		`iter_seconds 1.25`,
		`link_load_bucket{le="1"} 1`,
		`link_load_bucket{le="4"} 1`,
		`link_load_bucket{le="+Inf"} 2`,
		`link_load_sum 9`,
		`link_load_count 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("JSON round-trip mismatch:\n got %+v\nwant %+v", back, s)
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1})
	h.Observe(math.NaN())
	if s := r.Snapshot(); s.Histograms[0].Count != 0 {
		t.Fatalf("NaN observed: %+v", s.Histograms[0])
	}
}

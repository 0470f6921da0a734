package metrics

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
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

// richRegistry fills a registry the way four driver runs would, then
// walks 400 identities, registering instruments of all three kinds on
// three in four of them, that stress the key: reordered and duplicate
// label keys, more labels than the lookup's stack holds, quotes,
// invalid UTF-8, long values and names that share prefixes. Every
// instrument is looked up at least twice, in another label order the
// second time.
func richRegistry() *Registry {
	r := NewRegistry()
	loads := []float64{1, 2, 4, 8, 16, 32, 64}
	for run, strategy := range []string{"concurrent", "sequential", "concurrent", "sequential"} {
		strat := L("strategy", strategy)
		mp := []string{"multilevel", "txyz", "partition", "sequential"}[run]
		r.Counter("driver_runs_total", strat, L("mapping", mp), L("alloc", "predicted")).Inc()
		r.Gauge("driver_iter_seconds", strat).Set(0.25 * float64(run+1))
		r.Gauge("driver_hops_avg", strat).Set(1.5 + float64(run))
		for d, dom := range []string{"parent", "s0", "s1", "s2"} {
			for c, comp := range []string{"compute", "transfer", "wait"} {
				r.Counter("driver_phase_seconds", strat, L("domain", dom), L("component", comp)).Add(float64(1+run+d+c) / 8)
			}
		}
		for p, phase := range []string{"parent", "s0+s1+s2", "t1"} {
			h := r.Histogram("netsim_link_load", loads, strat, L("phase", phase))
			for i := 0; i < 50; i++ {
				h.Observe(float64((i*7 + run + p) % 80))
			}
			r.Gauge("netsim_max_link_load", strat, L("phase", phase)).Set(float64(40 + run + p))
		}
	}
	names := []string{"x", "x_", "x_total", "xy", "x_y", "a\"b"}
	keys := []string{"a", "b", "a", "le", "k", "quantile"}
	values := []string{"", "v", `q"uote`, "\xff\xfe", "héllo", "tab\tnl\n", strings.Repeat("long", 40)}
	for i := 0; i < 400; i++ {
		name := names[i%len(names)]
		if i%5 != 0 {
			name += strconv.Itoa(i % 150) // "x1", "x10", "x_100", ...
		}
		var ls []Label
		for j := 0; j < i%7; j++ {
			ls = append(ls, L(keys[(i+j)%len(keys)], values[(i*3+j*5)%len(values)]))
		}
		rev := make([]Label, len(ls))
		for j, l := range ls {
			rev[len(ls)-1-j] = l
		}
		v := float64(i%13) + 0.5
		switch i % 4 {
		case 0:
			r.Counter(name, ls...).Add(v)
			r.Counter(name, rev...).Add(v)
		case 1:
			r.Gauge(name, ls...).Set(v)
			r.Gauge(name, rev...).Add(-v / 4)
		case 2:
			r.Histogram(name, []float64{4, 1, 2, 2}, ls...).Observe(v)
			r.Histogram(name, nil, rev...).Observe(2 * v)
		}
	}
	return r
}

// The SHA-256 of richRegistry's snapshot as text and as JSON, recorded
// on the registry that still had a fourth, mutex-guarded summary kind
// (and, before it, one map per instrument kind and a label metadata
// map, whose digests this fixture's wider form matched).
const (
	richTextSHA = "d334e7bb016b45ba9b40011ed42477168d0f6aabe448b79f61d376582033a768"
	richJSONSHA = "a963ee16b606fbb08eaed810ef76d35ff62622a0e018686447b0eec478aa00c4"
)

// TestRichRegistryDigests holds the text and JSON renderings of a
// registry with every kind of identity to the recorded digests: the
// instruments, their labels as first given and their order.
func TestRichRegistryDigests(t *testing.T) {
	s := richRegistry().Snapshot()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(s.Text()))); got != richTextSHA {
		t.Errorf("text digest %s, want %s", got, richTextSHA)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != richJSONSHA {
		t.Errorf("JSON digest %s, want %s", got, richJSONSHA)
	}
	if n := len(s.Counters) + len(s.Gauges) + len(s.Histograms); n != 344 {
		t.Errorf("the rich registry holds %d instruments, want 344", n)
	}
}

// TestLookupAllocs looks up existing instruments of all three kinds
// with zero to four labels, in another order than they were created
// in, and requires that no lookup allocates: the key is built and the
// labels sorted on the stack. A key longer than that stack and a set of
// five labels still find the instrument they created.
func TestLookupAllocs(t *testing.T) {
	r := NewRegistry()
	all := []Label{L("strategy", "concurrent"), L("domain", "s1"), L("component", "wait"), L("domain", "s0")}
	bounds := []float64{1, 2, 4}
	for n := 0; n <= len(all); n++ {
		ls := all[:n]
		rev := slices.Clone(ls)
		slices.Reverse(rev)
		c, g := r.Counter("c", ls...), r.Gauge("g", ls...)
		h := r.Histogram("h", bounds, ls...)
		allocs := testing.AllocsPerRun(100, func() {
			if r.Counter("c", rev...) != c || r.Gauge("g", rev...) != g ||
				r.Histogram("h", bounds, rev...) != h {
				t.Fatalf("%d labels: a lookup returned another instrument", n)
			}
		})
		if allocs != 0 {
			t.Errorf("looking up instruments with %d labels allocates %v times, want 0", n, allocs)
		}
	}

	long := strings.Repeat("n", 100)
	if c := r.Counter(long, all...); r.Counter(long, all...) != c {
		t.Error("a key over the stack buffer found another counter")
	}
	five := append(slices.Clone(all), L("alloc", "predicted"))
	h := r.Histogram("h", bounds, five...)
	slices.Reverse(five)
	if r.Histogram("h", bounds, five...) != h {
		t.Error("five labels in another order found another histogram")
	}
}

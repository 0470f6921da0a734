// Package metrics is a race-safe instrumentation substrate: labelled
// counters, gauges and fixed-bucket histograms registered in a
// Registry, snapshotted into an immutable value and rendered as text or
// JSON. The simulator's layers (mpi, netsim, driver, iosim) record into
// a Registry only when one is supplied, so instrumentation is off the
// hot path by default; the CLIs surface snapshots with -metrics and
// publish them over expvar for live profiling.
//
// Instruments are identified by name plus a label set; asking the
// registry twice for the same identity returns the same instrument,
// and finding an existing one allocates nothing. All three kinds are
// lock-free atomics, safe for concurrent use; a nil *Registry (and the
// nil instruments it hands out) is a valid no-op sink, so call sites
// need no guards. A distribution is a Histogram: request and member
// latencies share the LatencyBounds buckets.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value dimension of an instrument.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// appendLabels appends a label set's canonical form, its pairs sorted
// by (key, value), rendered as fmt's "%s=%q" and joined by commas, to
// b. Up to four labels are sorted on the stack.
func appendLabels(b []byte, labels []Label) []byte {
	var stack [4]Label
	ls := append(stack[:0], labels...)
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && (ls[j].Key < ls[j-1].Key || ls[j].Key == ls[j-1].Key && ls[j].Value < ls[j-1].Value); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(append(b, l.Key...), '='), l.Value)
	}
	return b
}

// labelID renders a label set in its canonical form.
func labelID(labels []Label) string { return string(appendLabels(nil, labels)) }

// Counter is a monotonically increasing float64.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by v; negative or NaN deltas are ignored.
// Safe on a nil receiver.
func (c *Counter) Add(v float64) {
	if c == nil || !(v > 0) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. A nil counter reads zero.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an arbitrarily settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (which may be negative). Safe on a nil
// receiver.
func (g *Gauge) Add(v float64) {
	if g == nil || v == 0 || math.IsNaN(v) {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level. A nil gauge reads zero.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. An observation v
// lands in the first bucket whose upper bound satisfies v <= bound;
// values above every bound land in the implicit overflow bucket.
type Histogram struct {
	bounds   []float64 // sorted, finite upper bounds
	counts   []atomic.Uint64
	overflow atomic.Uint64
	sumBits  atomic.Uint64
	count    atomic.Uint64
}

// newHistogram builds a histogram over the given bounds (sorted and
// deduplicated defensively; non-finite bounds are dropped).
func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			bs = append(bs, b)
		}
	}
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{bounds: uniq, counts: make([]atomic.Uint64, len(uniq))}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx < len(h.bounds) {
		h.counts[idx].Add(1)
	} else {
		h.overflow.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// LatencyBounds are the duration buckets, in seconds, of every
// latency histogram: cache hits land in the microsecond buckets, cold
// plans and campaign members in the hundreds of milliseconds.
var LatencyBounds = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, 2.5, 5,
}

// Registry holds instruments keyed by (kind, name, label set). The
// zero value is not usable; use NewRegistry. A nil *Registry is a valid
// no-op sink.
type Registry struct {
	mu sync.Mutex
	m  map[string]*entry
}

// entry is one instrument: its name, its labels as first given and the
// *Counter, *Gauge or *Histogram itself.
type entry struct {
	name   string
	labels []Label
	inst   any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: map[string]*entry{}} }

// lookup returns the instrument of the given kind and identity,
// creating it with mk on first use. Its key is the kind, the name and
// the canonical labels, NUL-separated, built on the stack, so finding
// an existing instrument allocates nothing.
func (r *Registry) lookup(kind byte, name string, labels []Label, mk func() any) any {
	var stack [128]byte
	key := append(append(append(stack[:0], kind, 0), name...), 0)
	key = appendLabels(key, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[string(key)]
	if e == nil {
		e = &entry{name: name, labels: append([]Label(nil), labels...), inst: mk()}
		r.m[string(key)] = e
	}
	return e.inst
}

// Counter returns the counter with the given identity, creating it on
// first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup('c', name, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge with the given identity, creating it on
// first use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup('g', name, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram with the given identity, creating it
// with the given bucket upper bounds on first use (later calls reuse
// the first bounds). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup('h', name, labels, func() any { return newHistogram(bounds) }).(*Histogram)
}

// MetricValue is one counter or gauge reading in a snapshot.
type MetricValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// BucketValue is one histogram bucket in a snapshot.
type BucketValue struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramValue is one histogram reading in a snapshot.
type HistogramValue struct {
	Name    string        `json:"name"`
	Labels  []Label       `json:"labels,omitempty"`
	Buckets []BucketValue `json:"buckets"`
	// Overflow counts observations above the last bucket bound.
	Overflow uint64  `json:"overflow"`
	Sum      float64 `json:"sum"`
	Count    uint64  `json:"count"`
}

// Snapshot is an immutable, deeply copied view of a registry at one
// instant, ordered by (name, label set) within each section. Mutating
// a snapshot never affects the registry, and vice versa.
type Snapshot struct {
	Counters   []MetricValue    `json:"counters"`
	Gauges     []MetricValue    `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot captures the registry's current state. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := r.m[k]
		labels := append([]Label(nil), e.labels...)
		switch in := e.inst.(type) {
		case *Counter:
			s.Counters = append(s.Counters, MetricValue{Name: e.name, Labels: labels, Value: in.Value()})
		case *Gauge:
			s.Gauges = append(s.Gauges, MetricValue{Name: e.name, Labels: labels, Value: in.Value()})
		case *Histogram:
			hv := HistogramValue{
				Name: e.name, Labels: labels,
				Overflow: in.overflow.Load(),
				Sum:      math.Float64frombits(in.sumBits.Load()),
				Count:    in.count.Load(),
				Buckets:  make([]BucketValue, len(in.bounds)),
			}
			for i, b := range in.bounds {
				hv.Buckets[i] = BucketValue{UpperBound: b, Count: in.counts[i].Load()}
			}
			s.Histograms = append(s.Histograms, hv)
		}
	}
	return s
}

// labelSuffix renders a label set for the text format.
func labelSuffix(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	return "{" + labelID(labels) + "}"
}

// WriteText renders the snapshot in a Prometheus-like line format:
// one `name{k="v"} value` line per reading, histograms as cumulative
// `_bucket`, `_sum` and `_count` series.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%s%s %g\n", c.Name, labelSuffix(c.Labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%s%s %g\n", g.Name, labelSuffix(g.Labels), g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			ls := append(append([]Label(nil), h.Labels...), L("le", fmt.Sprintf("%g", b.UpperBound)))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, labelSuffix(ls), cum); err != nil {
				return err
			}
		}
		ls := append(append([]Label(nil), h.Labels...), L("le", "+Inf"))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, labelSuffix(ls), cum+h.Overflow); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", h.Name, labelSuffix(h.Labels), h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", h.Name, labelSuffix(h.Labels), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// Text returns the WriteText rendering as a string.
func (s Snapshot) Text() string {
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}

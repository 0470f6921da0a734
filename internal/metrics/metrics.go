// Package metrics is a race-safe instrumentation substrate: labelled
// counters, gauges and fixed-bucket histograms registered in a
// Registry, snapshotted into an immutable value and rendered as text
// or JSON. The simulator's layers (mpi, netsim, driver, iosim) record
// into a Registry only when one is supplied, so instrumentation is off
// the hot path by default; the CLIs surface snapshots with -metrics
// and publish them over expvar for live profiling.
//
// Instruments are identified by name plus a label set; asking the
// registry twice for the same identity returns the same instrument.
// All instrument operations are lock-free atomics and safe for
// concurrent use; a nil *Registry (and the nil instruments it hands
// out) is a valid no-op sink, so call sites need no guards.
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

	"nestwrf/internal/stats"
)

// Label is one name/value dimension of an instrument.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// labelID renders a label set in a canonical (sorted, escaped) form
// used for instrument identity and snapshot ordering.
func labelID(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Key != ls[j].Key {
			return ls[i].Key < ls[j].Key
		}
		return ls[i].Value < ls[j].Value
	})
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key + "=" + strconv.Quote(l.Value)) // the bytes of fmt's "%s=%q"
	}
	return b.String()
}

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

// DefaultQuantiles are the probabilities every Summary tracks: the
// p10/p50/p90 the ensemble aggregates and the serving latency reports
// standardize on.
var DefaultQuantiles = []float64{0.1, 0.5, 0.9}

// Summary estimates arbitrary quantiles of an observation stream with
// O(1) memory: one stats.P2 estimator per tracked probability, plus
// sum and count. Unlike Histogram its quantile readings adapt to the
// data instead of quantizing to fixed bucket bounds. Observations are
// serialized under a mutex (the P² update is stateful), so Observe is
// safe for concurrent use; a nil *Summary is a valid no-op sink.
type Summary struct {
	mu    sync.Mutex
	qs    []*stats.P2
	sum   float64
	count uint64
}

// newSummary builds a summary over DefaultQuantiles.
func newSummary() *Summary {
	s := &Summary{}
	for _, p := range DefaultQuantiles {
		s.qs = append(s.qs, stats.NewP2(p))
	}
	return s
}

// Observe records one value. Safe on a nil receiver.
func (s *Summary) Observe(v float64) {
	if s == nil || math.IsNaN(v) {
		return
	}
	s.mu.Lock()
	s.sum += v
	s.count++
	for _, q := range s.qs {
		q.Add(v)
	}
	s.mu.Unlock()
}

// Registry holds instruments keyed by (name, label set). The zero
// value is not usable; use NewRegistry. A nil *Registry is a valid
// no-op sink.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	summaries map[string]*Summary
	meta      map[string]instrumentMeta
}

type instrumentMeta struct {
	name   string
	labels []Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
		summaries: map[string]*Summary{},
		meta:      map[string]instrumentMeta{},
	}
}

// id builds the identity key for an instrument and records its
// metadata (callers hold r.mu).
func (r *Registry) id(kind, name string, labels []Label) string {
	key := kind + "\x00" + name + "\x00" + labelID(labels)
	if _, ok := r.meta[key]; !ok {
		r.meta[key] = instrumentMeta{name: name, labels: append([]Label(nil), labels...)}
	}
	return key
}

// Counter returns the counter with the given identity, creating it on
// first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := r.id("c", name, labels)
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the gauge with the given identity, creating it on
// first use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := r.id("g", name, labels)
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram with the given identity, creating it
// with the given bucket upper bounds on first use (later calls reuse
// the first bounds). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := r.id("h", name, labels)
	h, ok := r.hists[key]
	if !ok {
		h = newHistogram(bounds)
		r.hists[key] = h
	}
	return h
}

// Summary returns the summary with the given identity, creating it
// over DefaultQuantiles on first use. A nil registry returns a nil
// (no-op) summary.
func (r *Registry) Summary(name string, labels ...Label) *Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := r.id("s", name, labels)
	s, ok := r.summaries[key]
	if !ok {
		s = newSummary()
		r.summaries[key] = s
	}
	return s
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

// QuantileValue is one quantile estimate in a summary snapshot.
type QuantileValue struct {
	Quantile float64 `json:"quantile"`
	Value    float64 `json:"value"`
}

// SummaryValue is one summary reading in a snapshot.
type SummaryValue struct {
	Name      string          `json:"name"`
	Labels    []Label         `json:"labels,omitempty"`
	Quantiles []QuantileValue `json:"quantiles"`
	Sum       float64         `json:"sum"`
	Count     uint64          `json:"count"`
}

// Snapshot is an immutable, deeply copied view of a registry at one
// instant, ordered by (name, label set) within each section. Mutating
// a snapshot never affects the registry, and vice versa.
type Snapshot struct {
	Counters   []MetricValue    `json:"counters"`
	Gauges     []MetricValue    `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
	Summaries  []SummaryValue   `json:"summaries,omitempty"`
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
	keys := func(m map[string]instrumentMeta, prefix string) []string {
		var ks []string
		for k := range m {
			if strings.HasPrefix(k, prefix) {
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		return ks
	}
	for _, k := range keys(r.meta, "c\x00") {
		m := r.meta[k]
		s.Counters = append(s.Counters, MetricValue{
			Name: m.name, Labels: append([]Label(nil), m.labels...), Value: r.counters[k].Value(),
		})
	}
	for _, k := range keys(r.meta, "g\x00") {
		m := r.meta[k]
		s.Gauges = append(s.Gauges, MetricValue{
			Name: m.name, Labels: append([]Label(nil), m.labels...), Value: r.gauges[k].Value(),
		})
	}
	for _, k := range keys(r.meta, "h\x00") {
		m := r.meta[k]
		h := r.hists[k]
		hv := HistogramValue{
			Name: m.name, Labels: append([]Label(nil), m.labels...),
			Overflow: h.overflow.Load(),
			Sum:      math.Float64frombits(h.sumBits.Load()),
			Count:    h.count.Load(),
			Buckets:  make([]BucketValue, len(h.bounds)),
		}
		for i, b := range h.bounds {
			hv.Buckets[i] = BucketValue{UpperBound: b, Count: h.counts[i].Load()}
		}
		s.Histograms = append(s.Histograms, hv)
	}
	for _, k := range keys(r.meta, "s\x00") {
		m := r.meta[k]
		sm := r.summaries[k]
		sv := SummaryValue{Name: m.name, Labels: append([]Label(nil), m.labels...)}
		sm.mu.Lock()
		sv.Sum = sm.sum
		sv.Count = sm.count
		for _, q := range sm.qs {
			sv.Quantiles = append(sv.Quantiles, QuantileValue{Quantile: q.P, Value: q.Value()})
		}
		sm.mu.Unlock()
		s.Summaries = append(s.Summaries, sv)
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
	for _, sm := range s.Summaries {
		for _, q := range sm.Quantiles {
			ls := append(append([]Label(nil), sm.Labels...), L("quantile", fmt.Sprintf("%g", q.Quantile)))
			if _, err := fmt.Fprintf(w, "%s%s %g\n", sm.Name, labelSuffix(ls), q.Value); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", sm.Name, labelSuffix(sm.Labels), sm.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", sm.Name, labelSuffix(sm.Labels), sm.Count); err != nil {
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

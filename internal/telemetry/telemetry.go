// Package telemetry is the cross-layer span tracer: hierarchical
// wall-clock spans with explicit parent propagation from the serving
// edge (a planserve HTTP request, an ensemble campaign) down through
// the plan cache, the driver, and the per-phase accounting. It answers
// the question flat counters cannot: where did *this* plan query or
// *this* campaign member spend its time, layer by layer.
//
// The contract mirrors internal/metrics: a nil *Tracer is a valid
// no-op sink whose Start returns a nil *ActiveSpan, and every
// *ActiveSpan method is safe on a nil receiver, so instrumentation
// points need no guards and the uninstrumented path performs zero
// allocations (callers that build span names or attribute values must
// still guard those with Recording, since argument construction
// happens before the call).
//
// Parents are passed explicitly as SpanID values — through function
// arguments, driver.Options fields, or struct fields — never through
// goroutine-local state, so the span tree is exactly the call tree the
// caller wired. Finished spans accumulate in a bounded buffer (spans
// past MaxSpans are counted as dropped, not stored), and campaigns
// keep memory O(window) by head-sampling members: only every Nth
// member's subtree is traced (Sampled).
//
// Span and Dump are the repository's one span model, on two time bases:
// a tracer's wall-clock seconds, and the virtual seconds of a simulated
// iteration's schedule (driver.TraceIteration builds a Dump with Add).
// A Dump exports three ways: a schema-stable JSON record
// (nestwrf/spans/v1) that joins against log lines by span ID, a Chrome
// trace-event file (WriteChrome, one lane per layer, loadable in
// Perfetto), and a text Gantt chart (Render).
package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within one Tracer. Zero means "no span"
// and is the parent of root spans.
type SpanID uint64

// String renders the ID the way log lines and span dumps agree on.
func (id SpanID) String() string { return strconv.FormatUint(uint64(id), 10) }

// Layer names the lanes spans are drawn on in the Chrome export. Using
// the shared constants keeps one lane per layer across packages.
const (
	LayerCampaign = "campaign"
	LayerMember   = "member"
	LayerServe    = "planserve"
	LayerCache    = "cache"
	LayerDriver   = "driver"
	LayerPhase    = "phase"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one finished span: a named interval on a layer, linked to its
// parent by ID. A tracer's spans are timed in seconds since its epoch
// (its construction instant), so a span dump is self-contained; a
// schedule's spans carry virtual seconds and no ID.
type Span struct {
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// Config configures a Tracer. The zero value gets sensible defaults.
type Config struct {
	// MaxSpans bounds the finished-span buffer; spans ending past the
	// cap are counted as dropped instead of stored. Default 16384.
	MaxSpans int
	// SampleEvery head-samples campaign members: Sampled(id) is true
	// for every SampleEvery-th id (id 0 always). Default 100; values
	// <= 1 trace every member.
	SampleEvery int
	// Clock returns seconds since the tracer's epoch. Nil uses the
	// monotonic wall clock from construction time; tests inject a
	// deterministic clock to pin golden exports.
	Clock func() float64
}

// Tracer collects spans. Construct with New; a nil *Tracer is a valid
// no-op sink. All methods are safe for concurrent use.
type Tracer struct {
	clock       func() float64
	maxSpans    int
	sampleEvery int
	nextID      atomic.Uint64
	dropped     atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// New returns a Tracer with the given config (zero-value fields are
// defaulted).
func New(cfg Config) *Tracer {
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 16384
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 100
	}
	if cfg.Clock == nil {
		epoch := time.Now()
		cfg.Clock = func() float64 { return time.Since(epoch).Seconds() }
	}
	return &Tracer{clock: cfg.Clock, maxSpans: cfg.MaxSpans, sampleEvery: cfg.SampleEvery}
}

// Recording reports whether spans are being collected. Callers guard
// span-name or attribute-value construction with it so the nil-tracer
// path stays allocation-free.
func (t *Tracer) Recording() bool { return t != nil }

// Sampled reports whether member id's subtree should be traced under
// the tracer's head-sampling interval. A nil tracer samples nothing.
func (t *Tracer) Sampled(id int) bool {
	if t == nil || id < 0 {
		return false
	}
	return t.sampleEvery <= 1 || id%t.sampleEvery == 0
}

// Start opens a span under parent (zero for a root span) and returns
// its handle. A nil tracer returns a nil handle, on which every method
// is a no-op — the zero-alloc uninstrumented path.
func (t *Tracer) Start(parent SpanID, name, layer string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{
		t:      t,
		id:     SpanID(t.nextID.Add(1)),
		parent: parent,
		name:   name,
		layer:  layer,
		start:  t.clock(),
	}
}

// ActiveSpan is one in-progress span. It is owned by the goroutine
// that started it: Annotate and End are not safe for concurrent use on
// the same handle (different handles are independent).
type ActiveSpan struct {
	t      *Tracer
	id     SpanID
	parent SpanID
	name   string
	layer  string
	start  float64
	attrs  []Attr
	ended  bool
}

// ID returns the span's ID for propagation to children and log lines.
// A nil handle reads zero (the "no span" parent).
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Annotate attaches one key/value attribute. Safe on a nil receiver.
func (s *ActiveSpan) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span and commits it to the tracer's buffer (or the
// dropped counter when the buffer is full). Safe on a nil receiver;
// repeated End calls commit once.
func (s *ActiveSpan) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	end := s.t.clock()
	s.t.mu.Lock()
	if len(s.t.spans) >= s.t.maxSpans {
		s.t.mu.Unlock()
		s.t.dropped.Add(1)
		return
	}
	s.t.spans = append(s.t.spans, Span{
		ID: s.id, Parent: s.parent, Name: s.name, Layer: s.layer,
		Start: s.start, End: end, Attrs: s.attrs,
	})
	s.t.mu.Unlock()
}

// Len returns the number of finished spans currently buffered. A nil
// tracer reads zero.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of spans discarded past MaxSpans.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// fixedClock returns a deterministic clock ticking one second per
// call, starting at 1.
func fixedClock() func() float64 {
	var now float64
	return func() float64 {
		now++
		return now
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Recording() {
		t.Fatal("nil tracer must not be recording")
	}
	if tr.Sampled(0) {
		t.Fatal("nil tracer must sample nothing")
	}
	sp := tr.Start(0, "x", LayerDriver)
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil handle", sp)
	}
	// Every method must be safe on the nil handle.
	if got := sp.ID(); got != 0 {
		t.Fatalf("nil span ID = %d, want 0", got)
	}
	sp.Annotate("k", "v")
	sp.End()
	sp.End()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil tracer Len/Dropped = %d/%d, want 0/0", tr.Len(), tr.Dropped())
	}
	d := tr.Dump()
	if d.Schema != DumpSchema || len(d.Spans) != 0 {
		t.Fatalf("nil tracer dump = %+v, want empty %s dump", d, DumpSchema)
	}
}

func TestSpanTree(t *testing.T) {
	tr := New(Config{Clock: fixedClock()})
	root := tr.Start(0, "campaign", LayerCampaign) // start 1
	child := tr.Start(root.ID(), "member", LayerMember)
	child.Annotate("member", "0")
	grand := tr.Start(child.ID(), "driver.run", LayerDriver)
	grand.End() // end 4
	child.End()
	root.End()

	d := tr.Dump()
	if len(d.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(d.Spans))
	}
	// Dump orders by (start, id): root, child, grand.
	byName := map[string]Span{}
	for _, s := range d.Spans {
		byName[s.Name] = s
	}
	if got := []string{d.Spans[0].Name, d.Spans[1].Name, d.Spans[2].Name}; got[0] != "campaign" || got[1] != "member" || got[2] != "driver.run" {
		t.Fatalf("dump order = %v, want campaign, member, driver.run", got)
	}
	if byName["campaign"].Parent != 0 {
		t.Fatalf("root parent = %d, want 0", byName["campaign"].Parent)
	}
	if byName["member"].Parent != byName["campaign"].ID {
		t.Fatalf("member parent = %d, want campaign id %d", byName["member"].Parent, byName["campaign"].ID)
	}
	if byName["driver.run"].Parent != byName["member"].ID {
		t.Fatalf("driver parent = %d, want member id %d", byName["driver.run"].Parent, byName["member"].ID)
	}
	if m := byName["member"]; len(m.Attrs) != 1 || m.Attrs[0] != (Attr{Key: "member", Value: "0"}) {
		t.Fatalf("member attrs = %v, want [{member 0}]", m.Attrs)
	}
	for _, s := range d.Spans {
		if s.End <= s.Start {
			t.Fatalf("span %s has end %v <= start %v", s.Name, s.End, s.Start)
		}
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Config{Clock: fixedClock()})
	sp := tr.Start(0, "x", LayerDriver)
	sp.End()
	sp.End()
	sp.End()
	if got := tr.Len(); got != 1 {
		t.Fatalf("Len = %d after repeated End, want 1", got)
	}
}

func TestMaxSpansDrops(t *testing.T) {
	tr := New(Config{MaxSpans: 2, Clock: fixedClock()})
	for i := 0; i < 5; i++ {
		tr.Start(0, "s", LayerPhase).End()
	}
	if got := tr.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (MaxSpans)", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	if d := tr.Dump(); d.Dropped != 3 {
		t.Fatalf("dump Dropped = %d, want 3", d.Dropped)
	}
}

func TestSampled(t *testing.T) {
	tr := New(Config{}) // default SampleEvery 100
	for _, tc := range []struct {
		id   int
		want bool
	}{{0, true}, {1, false}, {99, false}, {100, true}, {250, false}, {-1, false}} {
		if got := tr.Sampled(tc.id); got != tc.want {
			t.Errorf("Sampled(%d) = %v, want %v", tc.id, got, tc.want)
		}
	}
	all := New(Config{SampleEvery: 1})
	for id := 0; id < 5; id++ {
		if !all.Sampled(id) {
			t.Errorf("SampleEvery=1: Sampled(%d) = false, want true", id)
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Start(0, "w", LayerMember)
				sp.Annotate("i", "x")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != 800 {
		t.Fatalf("Len = %d, want 800", got)
	}
	seen := map[SpanID]bool{}
	for _, s := range tr.Dump().Spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestSpanIDString(t *testing.T) {
	if got := SpanID(42).String(); got != "42" {
		t.Fatalf("SpanID(42).String() = %q, want 42", got)
	}
	if got := SpanID(0).String(); !strings.EqualFold(got, "0") {
		t.Fatalf("SpanID(0).String() = %q, want 0", got)
	}
}

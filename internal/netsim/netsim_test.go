package netsim

import (
	"math"
	"reflect"
	"testing"

	"nestwrf/internal/torus"
)

func params() Params {
	return Params{LatencyPerHop: 1e-6, Overhead: 2e-6, Bandwidth: 175e6}
}

func TestParamsValidate(t *testing.T) {
	if err := params().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{LatencyPerHop: 0, Overhead: 1, Bandwidth: 1},
		{LatencyPerHop: 1, Overhead: -1, Bandwidth: 1},
		{LatencyPerHop: 1, Overhead: 1, Bandwidth: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
	tor, _ := torus.New(2, 2, 2)
	if _, err := New(tor, bad[0]); err == nil {
		t.Error("New should reject bad params")
	}
}

func TestTransferTimeSelfMessage(t *testing.T) {
	tor, _ := torus.New(4, 4, 4)
	n, err := New(tor, params())
	if err != nil {
		t.Fatal(err)
	}
	a := torus.Coord{X: 1, Y: 1, Z: 1}
	if got := n.TransferTime(a, a, 1000); got != params().Overhead {
		t.Errorf("self message = %v, want overhead only", got)
	}
}

func TestTransferTimeUncontended(t *testing.T) {
	tor, _ := torus.New(8, 8, 8)
	n, err := New(tor, params())
	if err != nil {
		t.Fatal(err)
	}
	a := torus.Coord{X: 0, Y: 0, Z: 0}
	b := torus.Coord{X: 2, Y: 0, Z: 0}
	bytes := 8192
	want := params().Overhead + 2*params().LatencyPerHop + float64(bytes)/params().Bandwidth
	if got := n.TransferTime(a, b, bytes); math.Abs(got-want) > 1e-15 {
		t.Errorf("uncontended transfer = %v, want %v", got, want)
	}
	if got := params().MessageTime(2, 1, bytes); math.Abs(got-want) > 1e-15 {
		t.Errorf("MessageTime = %v, want %v", got, want)
	}
}

func TestContentionSlowsTransfers(t *testing.T) {
	tor, _ := torus.New(8, 1, 1)
	n, err := New(tor, params())
	if err != nil {
		t.Fatal(err)
	}
	a := torus.Coord{X: 0, Y: 0, Z: 0}
	b := torus.Coord{X: 1, Y: 0, Z: 0}
	base := n.TransferTime(a, b, 100000)
	// Three more flows over the same link.
	for i := 0; i < 3; i++ {
		n.AddFlow(a, b)
	}
	loaded := n.TransferTime(a, b, 100000)
	if loaded <= base {
		t.Errorf("loaded %v should exceed uncontended %v", loaded, base)
	}
	// Path load is 3 registered flows; bandwidth term scales by 3.
	want := params().Overhead + params().LatencyPerHop + 100000.0*3/params().Bandwidth
	if math.Abs(loaded-want) > 1e-12 {
		t.Errorf("loaded = %v, want %v", loaded, want)
	}
}

func TestResetClearsLoad(t *testing.T) {
	tor, _ := torus.New(4, 4, 1)
	n, err := New(tor, params())
	if err != nil {
		t.Fatal(err)
	}
	a, b := torus.Coord{X: 0, Y: 0, Z: 0}, torus.Coord{X: 1, Y: 0, Z: 0}
	n.AddFlow(a, b)
	n.AddFlow(a, b)
	if n.MaxLinkLoad() != 2 {
		t.Errorf("MaxLinkLoad = %d", n.MaxLinkLoad())
	}
	n.Reset()
	if n.MaxLinkLoad() != 0 {
		t.Errorf("after Reset MaxLinkLoad = %d", n.MaxLinkLoad())
	}
	if n.TotalHops() != 0 {
		t.Errorf("after Reset TotalHops = %d", n.TotalHops())
	}
}

// TestResetToMatchesNew moves one loaded Network across tori of other
// sizes with ResetTo, and asserts each phase it then carries reads as
// on a fresh Network of that torus: every link load, and Stats.
func TestResetToMatchesNew(t *testing.T) {
	n, err := New(torus.Torus{X: 4, Y: 4, Z: 4}, params())
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][3]int{{4, 4, 4}, {2, 2, 2}, {8, 8, 8}, {3, 5, 2}} {
		tor, _ := torus.New(dims[0], dims[1], dims[2])
		fresh, err := New(tor, params())
		if err != nil {
			t.Fatal(err)
		}
		n.ResetTo(tor)
		for i := 0; i < tor.Nodes(); i++ {
			a, b := tor.CoordOf(i), tor.CoordOf((i*5+1)%tor.Nodes())
			n.AddFlow(a, b)
			fresh.AddFlow(a, b)
		}
		if n.Torus != tor || !reflect.DeepEqual(n.load, fresh.load) || !reflect.DeepEqual(n.Stats(), fresh.Stats()) {
			t.Fatalf("%v: after ResetTo the loads differ from a fresh network's", dims)
		}
	}
}

func TestAddFlowsBothDirections(t *testing.T) {
	tor, _ := torus.New(4, 1, 1)
	n, err := New(tor, params())
	if err != nil {
		t.Fatal(err)
	}
	a, b := torus.Coord{X: 0, Y: 0, Z: 0}, torus.Coord{X: 1, Y: 0, Z: 0}
	n.AddFlows([][2]torus.Coord{{a, b}})
	// Forward and reverse use distinct directed links, so no link sees
	// more than one message.
	if n.MaxLinkLoad() != 1 {
		t.Errorf("MaxLinkLoad = %d, want 1 (directions are independent)", n.MaxLinkLoad())
	}
	if n.TotalHops() != 2 {
		t.Errorf("TotalHops = %d, want 2", n.TotalHops())
	}
}

func TestPathLoadCountsOwnMessage(t *testing.T) {
	tor, _ := torus.New(4, 4, 4)
	n, err := New(tor, params())
	if err != nil {
		t.Fatal(err)
	}
	a, b := torus.Coord{X: 0, Y: 0, Z: 0}, torus.Coord{X: 2, Y: 1, Z: 0}
	if got := n.PathLoad(a, b); got != 1 {
		t.Errorf("empty-phase PathLoad = %d, want 1", got)
	}
	if got := n.PathLoad(a, a); got != 0 {
		t.Errorf("self PathLoad = %d, want 0", got)
	}
}

// Far messages crossing a shared bottleneck slow down more than near
// ones: the core argument for compact sibling placement.
func TestLongRoutesPickUpMoreContention(t *testing.T) {
	tor, _ := torus.New(8, 1, 1)
	n, err := New(tor, params())
	if err != nil {
		t.Fatal(err)
	}
	orig := torus.Coord{X: 0, Y: 0, Z: 0}
	// Many 1-hop flows spread along the ring.
	for x := 0; x < 4; x++ {
		n.AddFlow(torus.Coord{X: x, Y: 0, Z: 0}, torus.Coord{X: x + 1, Y: 0, Z: 0})
	}
	near := n.TransferTime(orig, torus.Coord{X: 1, Y: 0, Z: 0}, 50000)
	far := n.TransferTime(orig, torus.Coord{X: 4, Y: 0, Z: 0}, 50000)
	if far <= near {
		t.Errorf("far %v should exceed near %v", far, near)
	}
}

func TestTotalHopsMatchesRouteLengths(t *testing.T) {
	tor, _ := torus.New(4, 4, 2)
	n, err := New(tor, params())
	if err != nil {
		t.Fatal(err)
	}
	a := torus.Coord{X: 0, Y: 0, Z: 0}
	b := torus.Coord{X: 2, Y: 1, Z: 1}
	n.AddFlow(a, b) // 2+1+1 = 4 hops
	n.AddFlow(b, a)
	if got := n.TotalHops(); got != 8 {
		t.Errorf("TotalHops = %d, want 8", got)
	}
}

func BenchmarkTransferTimeLoaded(b *testing.B) {
	tor, _ := torus.New(8, 8, 16)
	n, err := New(tor, params())
	if err != nil {
		b.Fatal(err)
	}
	for x := 0; x < 8; x++ {
		n.AddFlow(torus.Coord{X: x, Y: 0, Z: 0}, torus.Coord{X: x, Y: 4, Z: 8})
	}
	a := torus.Coord{X: 0, Y: 0, Z: 0}
	c := torus.Coord{X: 3, Y: 2, Z: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.TransferTime(a, c, 65536)
	}
}

// TestStats checks the congestion summary against a hand-built phase.
func TestStats(t *testing.T) {
	tor, err := torus.New(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(tor, Params{LatencyPerHop: 1e-7, Overhead: 1e-6, Bandwidth: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if s := n.Stats(); s.Links != 0 || s.MaxLoad != 0 || s.TotalHops != 0 || s.Histogram != nil {
		t.Fatalf("empty network stats = %+v", s)
	}
	// Two flows sharing the first hop of a straight-line route.
	a := torus.Coord{X: 0, Y: 0, Z: 0}
	b := torus.Coord{X: 1, Y: 0, Z: 0}
	c := torus.Coord{X: 2, Y: 0, Z: 0}
	n.AddFlow(a, b) // loads link a->b
	n.AddFlow(a, c) // loads a->b and b->c
	s := n.Stats()
	if s.Links != 2 {
		t.Errorf("Links = %d, want 2", s.Links)
	}
	if s.TotalHops != 3 || s.TotalHops != n.TotalHops() {
		t.Errorf("TotalHops = %d (method %d), want 3", s.TotalHops, n.TotalHops())
	}
	if s.MaxLoad != 2 || s.MaxLoad != n.MaxLinkLoad() {
		t.Errorf("MaxLoad = %d, want 2", s.MaxLoad)
	}
	want := []LoadBucket{{Load: 1, Links: 1}, {Load: 2, Links: 1}}
	if !reflect.DeepEqual(s.Histogram, want) {
		t.Errorf("Histogram = %+v, want %+v", s.Histogram, want)
	}
	n.Reset()
	if s := n.Stats(); s.Links != 0 {
		t.Errorf("stats after Reset = %+v", s)
	}
}

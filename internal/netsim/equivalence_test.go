package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"nestwrf/internal/torus"
)

// TestDenseMatchesReference drives random flow patterns through the
// dense kernel and the map-based oracle of reference_test.go and
// asserts every observable — link loads, path loads, transfer times of
// ad-hoc and of recorded flows, congestion stats — is identical,
// including across Reset.
func TestDenseMatchesReference(t *testing.T) {
	p := Params{LatencyPerHop: 9e-7, Overhead: 8e-4, Bandwidth: 175e6}
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{2, 2, 2}, {4, 2, 4}, {8, 8, 8}, {3, 5, 2}, {1, 6, 1}} {
		tor, err := torus.New(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		fast, err := New(tor, p)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(tor, p)
		randCoord := func() torus.Coord {
			return torus.Coord{X: rng.Intn(tor.X), Y: rng.Intn(tor.Y), Z: rng.Intn(tor.Z)}
		}
		for phase := 0; phase < 3; phase++ {
			var pairs [][2]torus.Coord
			for i := 0; i < 40; i++ {
				pairs = append(pairs, [2]torus.Coord{randCoord(), randCoord()})
			}
			pairs = append(pairs, [2]torus.Coord{pairs[0][0], pairs[0][0]}) // a self-message
			fast.AddFlows(pairs)
			ref.AddFlows(pairs)

			for i := 0; i < tor.LinkIndexCount(); i++ {
				if got, want := int(fast.load[i]), ref.load[tor.LinkAt(torus.LinkIndex(i))]; got != want {
					t.Fatalf("%v phase %d: load[%v] = %d, reference %d", dims, phase, tor.LinkAt(torus.LinkIndex(i)), got, want)
				}
			}
			if got, want := fast.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v phase %d: Stats = %+v, reference %+v", dims, phase, got, want)
			}
			if got, want := fast.MaxLinkLoad(), ref.Stats().MaxLoad; got != want {
				t.Fatalf("%v phase %d: MaxLinkLoad = %d, reference %d", dims, phase, got, want)
			}
			if got, want := fast.TotalHops(), ref.Stats().TotalHops; got != want {
				t.Fatalf("%v phase %d: TotalHops = %d, reference %d", dims, phase, got, want)
			}
			// Recorded flows, interleaved with ad-hoc queries that
			// reuse the scratch buffer.
			if got, want := fast.Flows(), len(ref.flows); got != want {
				t.Fatalf("%v phase %d: %d recorded flows, reference %d", dims, phase, got, want)
			}
			for i := range ref.flows {
				bytes := rng.Intn(1 << 20)
				if got, want := p.MessageTime(fast.FlowHops(i), fast.FlowLoad(i), bytes), ref.FlowTime(i, bytes); got != want {
					t.Fatalf("%v phase %d: MessageTime of flow %d, %d bytes = %v, reference %v", dims, phase, i, bytes, got, want)
				}
				if got, want := fast.FlowHops(i), ref.FlowHops(i); got != want {
					t.Fatalf("%v phase %d: FlowHops(%d) = %d, reference %d", dims, phase, i, got, want)
				}
				a, b := randCoord(), randCoord()
				if got, want := fast.PathLoad(a, b), ref.PathLoad(a, b); got != want {
					t.Fatalf("%v phase %d: PathLoad(%v,%v) = %d, reference %d", dims, phase, a, b, got, want)
				}
				if got, want := fast.TransferTime(a, b, bytes), ref.TransferTime(a, b, bytes); got != want {
					t.Fatalf("%v phase %d: TransferTime(%v,%v,%d) = %v, reference %v", dims, phase, a, b, bytes, got, want)
				}
			}
			fast.Reset()
			ref.Reset()
			if got := fast.MaxLinkLoad(); got != 0 {
				t.Fatalf("%v phase %d: MaxLinkLoad after Reset = %d", dims, phase, got)
			}
			if got := fast.Stats(); got.Links != 0 || got.TotalHops != 0 {
				t.Fatalf("%v phase %d: Stats after Reset = %+v", dims, phase, got)
			}
			if len(fast.ends) != 0 || len(fast.arena) != 0 {
				t.Fatalf("%v phase %d: recorded flows survive Reset", dims, phase)
			}
		}
	}
}

// TestMessageTimeIsTransferTime ties the hop-count formula the model
// prices with to TransferTime: on an empty network at load 1, and under
// load at the route's PathLoad.
func TestMessageTimeIsTransferTime(t *testing.T) {
	tor, _ := torus.New(4, 3, 5)
	p := Params{LatencyPerHop: 9e-7, Overhead: 8e-4, Bandwidth: 175e6}
	n, err := New(tor, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, loaded := range []bool{false, true} {
		for i := 0; i < tor.Nodes(); i++ {
			for j := 0; j < tor.Nodes(); j++ {
				a, b := tor.CoordOf(i), tor.CoordOf(j)
				load := 1
				if loaded {
					load = n.PathLoad(a, b)
				}
				if got, want := p.MessageTime(tor.Hops(a, b), load, 4096+i), n.TransferTime(a, b, 4096+i); got != want {
					t.Fatalf("loaded=%v: MessageTime(%v,%v) = %v, TransferTime %v", loaded, a, b, got, want)
				}
			}
		}
		for i := 0; i < tor.Nodes(); i++ {
			n.AddFlow(tor.CoordOf(i), tor.CoordOf((i*7+3)%tor.Nodes()))
		}
	}
}

// TestSelfMessage preserves the self-message contract.
func TestSelfMessage(t *testing.T) {
	tor, _ := torus.New(4, 4, 4)
	p := Params{LatencyPerHop: 1e-6, Overhead: 1e-4, Bandwidth: 1e8}
	n, err := New(tor, p)
	if err != nil {
		t.Fatal(err)
	}
	c := torus.Coord{X: 1, Y: 1, Z: 1}
	n.AddFlow(c, c)
	if got := n.TotalHops(); got != 0 {
		t.Fatalf("self flow added load: TotalHops = %d", got)
	}
	if got := n.TransferTime(c, c, 1000); got != p.Overhead {
		t.Fatalf("self TransferTime = %v, want overhead %v", got, p.Overhead)
	}
	if got := n.PathLoad(c, c); got != 0 {
		t.Fatalf("self PathLoad = %d, want 0", got)
	}
	if got, hops := p.MessageTime(n.FlowHops(0), n.FlowLoad(0), 1000), n.FlowHops(0); got != p.Overhead || hops != 0 {
		t.Fatalf("recorded self flow: time %v over %d hops, want overhead %v over 0", got, hops, p.Overhead)
	}
}

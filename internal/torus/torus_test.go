package torus

import (
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 4); err == nil {
		t.Error("zero dimension should fail")
	}
	if _, err := New(4, -1, 4); err == nil {
		t.Error("negative dimension should fail")
	}
	tor, err := New(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tor.Nodes() != 32 {
		t.Errorf("Nodes = %d", tor.Nodes())
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	tor := Torus{5, 3, 7}
	for i := 0; i < tor.Nodes(); i++ {
		c := tor.CoordOf(i)
		if !tor.Valid(c) {
			t.Fatalf("CoordOf(%d) = %v invalid", i, c)
		}
		if got := tor.Index(c); got != i {
			t.Fatalf("Index(CoordOf(%d)) = %d", i, got)
		}
	}
}

func TestHopsBasic(t *testing.T) {
	tor := Torus{4, 4, 2}
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0, 0}, Coord{0, 0, 0}, 0},
		{Coord{0, 0, 0}, Coord{1, 0, 0}, 1},
		{Coord{0, 0, 0}, Coord{3, 0, 0}, 1}, // wraparound
		{Coord{0, 0, 0}, Coord{2, 0, 0}, 2},
		{Coord{0, 0, 0}, Coord{2, 2, 1}, 5},
		{Coord{1, 1, 0}, Coord{1, 1, 1}, 1},
		{Coord{0, 3, 0}, Coord{0, 0, 0}, 1}, // y wraparound
	}
	for _, tc := range cases {
		if got := tor.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("Hops(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	tor := Torus{6, 5, 4}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := tor.CoordOf(rng.Intn(tor.Nodes()))
		b := tor.CoordOf(rng.Intn(tor.Nodes()))
		if tor.Hops(a, b) != tor.Hops(b, a) {
			t.Fatalf("Hops not symmetric for %v, %v", a, b)
		}
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	tor := Torus{4, 6, 3}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		a := tor.CoordOf(rng.Intn(tor.Nodes()))
		b := tor.CoordOf(rng.Intn(tor.Nodes()))
		c := tor.CoordOf(rng.Intn(tor.Nodes()))
		if tor.Hops(a, c) > tor.Hops(a, b)+tor.Hops(b, c) {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestHopsMaxDiameter(t *testing.T) {
	tor := Torus{8, 8, 16}
	want := 4 + 4 + 8 // half of each dimension
	got := 0
	for i := 0; i < tor.Nodes(); i++ {
		h := tor.Hops(Coord{0, 0, 0}, tor.CoordOf(i))
		if h > got {
			got = h
		}
	}
	if got != want {
		t.Errorf("diameter = %d, want %d", got, want)
	}
}

func TestRouteLengthMatchesHops(t *testing.T) {
	tor := Torus{4, 4, 2}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a := tor.CoordOf(rng.Intn(tor.Nodes()))
		b := tor.CoordOf(rng.Intn(tor.Nodes()))
		route := tor.Route(a, b)
		if len(route) != tor.Hops(a, b) {
			t.Fatalf("route length %d != hops %d for %v->%v", len(route), tor.Hops(a, b), a, b)
		}
	}
}

func TestRouteIsConnectedAndDimensionOrdered(t *testing.T) {
	tor := Torus{5, 4, 3}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		a := tor.CoordOf(rng.Intn(tor.Nodes()))
		b := tor.CoordOf(rng.Intn(tor.Nodes()))
		route := tor.Route(a, b)
		cur := a
		lastDim := Dim(0)
		for hi, l := range route {
			if l.From != cur {
				t.Fatalf("link %d starts at %v, expected %v", hi, l.From, cur)
			}
			if l.Dim < lastDim {
				t.Fatalf("route not dimension-ordered: %v after %v", l.Dim, lastDim)
			}
			lastDim = l.Dim
			cur = tor.Neighbor(cur, l.Dim, l.Dir)
		}
		if cur != b {
			t.Fatalf("route from %v ends at %v, want %v", a, cur, b)
		}
	}
}

func TestRouteSameNode(t *testing.T) {
	tor := Torus{4, 4, 4}
	if r := tor.Route(Coord{1, 2, 3}, Coord{1, 2, 3}); len(r) != 0 {
		t.Errorf("self route should be empty, got %d links", len(r))
	}
}

func TestRouteWraparound(t *testing.T) {
	tor := Torus{8, 8, 8}
	// 0 -> 7 should take the single wraparound hop in -x.
	route := tor.Route(Coord{0, 0, 0}, Coord{7, 0, 0})
	if len(route) != 1 {
		t.Fatalf("route length %d, want 1", len(route))
	}
	if route[0].Dir != -1 || route[0].Dim != DimX {
		t.Errorf("route = %+v, want -x hop", route[0])
	}
}

func TestNeighborWraps(t *testing.T) {
	tor := Torus{4, 4, 2}
	if got := tor.Neighbor(Coord{3, 0, 0}, DimX, 1); got != (Coord{0, 0, 0}) {
		t.Errorf("x+ wrap = %v", got)
	}
	if got := tor.Neighbor(Coord{0, 0, 0}, DimY, -1); got != (Coord{0, 3, 0}) {
		t.Errorf("y- wrap = %v", got)
	}
	if got := tor.Neighbor(Coord{0, 0, 1}, DimZ, 1); got != (Coord{0, 0, 0}) {
		t.Errorf("z+ wrap = %v", got)
	}
}

func TestDimString(t *testing.T) {
	if DimX.String() != "X" || DimY.String() != "Y" || DimZ.String() != "Z" {
		t.Error("Dim strings wrong")
	}
	if Dim(9).String() != "Dim(9)" {
		t.Errorf("unknown dim = %q", Dim(9).String())
	}
}

func TestWrapDelta(t *testing.T) {
	cases := []struct {
		a, b, size, want int
	}{
		{0, 1, 8, 1},
		{0, 7, 8, -1},
		{0, 4, 8, 4}, // tie prefers positive
		{3, 3, 8, 0},
		{7, 0, 8, 1},
	}
	for _, tc := range cases {
		if got := wrapDelta(tc.a, tc.b, tc.size); got != tc.want {
			t.Errorf("wrapDelta(%d,%d,%d) = %d, want %d", tc.a, tc.b, tc.size, got, tc.want)
		}
	}
}

// TestWrapDeltaMatchesModularDefinition sweeps the division-free
// wrapDelta against the modular definition it replaced, including
// positions that are negative or beyond the ring.
func TestWrapDeltaMatchesModularDefinition(t *testing.T) {
	modular := func(a, b, size int) int {
		d := ((b-a)%size + size) % size
		if d*2 > size {
			return d - size
		}
		return d
	}
	for _, size := range []int{1, 2, 3, 4, 5, 8, 17} {
		for a := -3 * size; a <= 3*size; a++ {
			for b := -3 * size; b <= 3*size; b++ {
				if got, want := wrapDelta(a, b, size), modular(a, b, size); got != want {
					t.Fatalf("wrapDelta(%d,%d,%d) = %d, modular definition %d", a, b, size, got, want)
				}
			}
		}
	}
}

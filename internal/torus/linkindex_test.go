package torus

import (
	"math/rand"
	"testing"
)

// TestLinkIndexRoundTrip checks LinkIndexOf and LinkAt are inverses
// over every slot of several torus shapes.
func TestLinkIndexRoundTrip(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 2, 2}, {4, 2, 4}, {8, 8, 16}, {3, 5, 7}} {
		tor, err := New(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tor.LinkIndexCount(), 6*tor.Nodes(); got != want {
			t.Fatalf("%v: LinkIndexCount = %d, want %d", dims, got, want)
		}
		for i := 0; i < tor.LinkIndexCount(); i++ {
			l := tor.LinkAt(LinkIndex(i))
			if back := tor.LinkIndexOf(l); back != LinkIndex(i) {
				t.Fatalf("%v: LinkIndexOf(LinkAt(%d)) = %d", dims, i, back)
			}
		}
	}
}

// TestRouteVariantsAgree checks that Route and RouteIndicesInto
// produce the same link sequence for random pairs, and that the route
// length always equals the hop distance.
func TestRouteVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 2, 2}, {4, 2, 4}, {8, 8, 8}, {3, 5, 7}, {1, 6, 2}} {
		tor, err := New(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		idxBuf := make([]LinkIndex, 0, 32)
		for trial := 0; trial < 200; trial++ {
			a := Coord{rng.Intn(tor.X), rng.Intn(tor.Y), rng.Intn(tor.Z)}
			b := Coord{rng.Intn(tor.X), rng.Intn(tor.Y), rng.Intn(tor.Z)}
			route := tor.Route(a, b)
			if len(route) != tor.Hops(a, b) {
				t.Fatalf("%v: Route(%v,%v) has %d links, Hops = %d", dims, a, b, len(route), tor.Hops(a, b))
			}
			idx := tor.RouteIndicesInto(a, b, idxBuf[:0])
			if len(idx) != len(route) {
				t.Fatalf("%v: RouteIndicesInto length %d != Route length %d", dims, len(idx), len(route))
			}
			for i := range route {
				if got := tor.LinkAt(idx[i]); got != route[i] {
					t.Fatalf("%v: LinkAt(RouteIndices[%d]) = %v, Route[%d] = %v", dims, i, got, i, route[i])
				}
			}
		}
	}
}

// TestRouteSelfEmpty preserves the original contract: a == b routes are
// empty, and Route returns nil.
func TestRouteSelfEmpty(t *testing.T) {
	tor, _ := New(4, 4, 4)
	c := Coord{1, 2, 3}
	if r := tor.Route(c, c); r != nil {
		t.Fatalf("Route(c,c) = %v, want nil", r)
	}
	if r := tor.RouteIndicesInto(c, c, nil); len(r) != 0 {
		t.Fatalf("RouteIndicesInto(c,c,nil) = %v, want empty", r)
	}
}

// TestRouteIndicesMatchRouteAllPairs is the property the division-free
// walk must hold: over every ordered node pair of tori built from ring
// sizes 1, 2, 3, 4, 5 and 8, RouteIndicesInto equals LinkIndexOf mapped
// over Route link for link, its length equals Hops, and ties on
// even rings are walked in the positive direction.
func TestRouteIndicesMatchRouteAllPairs(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 8}
	var idx []LinkIndex
	for _, x := range sizes {
		for _, y := range sizes {
			for _, z := range sizes {
				tor := Torus{x, y, z}
				for i := 0; i < tor.Nodes(); i++ {
					for j := 0; j < tor.Nodes(); j++ {
						a, b := tor.CoordOf(i), tor.CoordOf(j)
						links := tor.Route(a, b)
						idx = tor.RouteIndicesInto(a, b, idx[:0])
						if len(idx) != tor.Hops(a, b) || len(idx) != len(links) {
							t.Fatalf("%v: %v->%v: %d indices, %d links, Hops = %d", tor, a, b, len(idx), len(links), tor.Hops(a, b))
						}
						for k, l := range links {
							if idx[k] != tor.LinkIndexOf(l) {
								t.Fatalf("%v: %v->%v hop %d: index %d (%v), want %d (%v)", tor, a, b, k, idx[k], tor.LinkAt(idx[k]), tor.LinkIndexOf(l), l)
							}
						}
					}
				}
			}
		}
	}
	// Half-way round an even ring: positive direction, as before.
	for _, size := range []int{2, 4, 8} {
		tor := Torus{size, size, size}
		for _, l := range tor.Route(Coord{}, Coord{size / 2, size / 2, size / 2}) {
			if l.Dir != 1 {
				t.Fatalf("ring %d: tie walked in direction %d", size, l.Dir)
			}
		}
		for _, li := range tor.RouteIndicesInto(Coord{}, Coord{size / 2, size / 2, size / 2}, nil) {
			if tor.LinkAt(li).Dir != 1 {
				t.Fatalf("ring %d: tie indexed in direction %d", size, tor.LinkAt(li).Dir)
			}
		}
	}
}

// TestRouteIndicesWrapOutOfRange pins the fallback for coordinates off
// the torus: they are taken modulo the ring sizes.
func TestRouteIndicesWrapOutOfRange(t *testing.T) {
	tor := Torus{4, 3, 5}
	for _, off := range []Coord{{-1, 0, 0}, {4, 3, 5}, {-9, 7, -11}, {0, -3, 12}} {
		a := Coord{1 + off.X, 2 + off.Y, 3 + off.Z}
		b := Coord{3 - 2*off.X, off.Y, 4 + 3*off.Z}
		got := tor.RouteIndicesInto(a, b, nil)
		want := tor.RouteIndicesInto(tor.wrap(a), tor.wrap(b), nil)
		if len(got) != len(want) {
			t.Fatalf("%v->%v: %d links, wrapped %d", a, b, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] || got[k] < 0 || int(got[k]) >= tor.LinkIndexCount() {
				t.Fatalf("%v->%v hop %d: index %d, wrapped %d", a, b, k, got[k], want[k])
			}
		}
		if !tor.Valid(tor.wrap(a)) || !tor.Valid(tor.wrap(b)) {
			t.Fatalf("wrap(%v), wrap(%v) not on the torus", a, b)
		}
	}
}

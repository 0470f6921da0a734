package vtopo

import (
	"testing"

	"nestwrf/internal/alloc"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 4); err == nil {
		t.Error("zero Px should fail")
	}
	if _, err := NewGrid(4, -2); err == nil {
		t.Error("negative Py should fail")
	}
	g, err := NewGrid(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 32 {
		t.Errorf("Size = %d", g.Size())
	}
}

func TestRankCoordRoundTrip(t *testing.T) {
	g := Grid{Px: 7, Py: 5}
	for r := 0; r < g.Size(); r++ {
		x, y := g.Coord(r)
		if !g.Valid(x, y) {
			t.Fatalf("Coord(%d) = (%d,%d) invalid", r, x, y)
		}
		if got := g.Rank(x, y); got != r {
			t.Fatalf("Rank(Coord(%d)) = %d", r, got)
		}
	}
}

// The paper's Fig. 5(a) numbering: 32 processes in an 8x4 grid, rank 0
// top-left, x fastest. Rank 0's neighbours are 1 (east) and 8 (north
// row below in rank order).
func TestFig5aNumbering(t *testing.T) {
	g := Grid{Px: 8, Py: 4}
	if g.Rank(0, 0) != 0 || g.Rank(3, 0) != 3 || g.Rank(0, 1) != 8 {
		t.Error("rank numbering mismatch with Fig. 5(a)")
	}
	if got := g.Neighbor(0, East); got != 1 {
		t.Errorf("east of 0 = %d", got)
	}
	if got := g.Neighbor(0, North); got != 8 {
		t.Errorf("north of 0 = %d", got)
	}
	if got := g.Neighbor(8, North); got != 16 {
		t.Errorf("north of 8 = %d", got)
	}
}

func TestNeighborBoundaries(t *testing.T) {
	g := Grid{Px: 4, Py: 3}
	if g.Neighbor(0, West) != -1 {
		t.Error("west of left edge should be -1")
	}
	if g.Neighbor(3, East) != -1 {
		t.Error("east of right edge should be -1")
	}
	if g.Neighbor(0, South) != -1 {
		t.Error("south of bottom row should be -1")
	}
	if g.Neighbor(g.Rank(0, 2), North) != -1 {
		t.Error("north of top row should be -1")
	}
}

func TestNeighborsCount(t *testing.T) {
	g := Grid{Px: 4, Py: 4}
	if got := len(g.Neighbors(g.Rank(1, 1))); got != 4 {
		t.Errorf("interior neighbours = %d, want 4", got)
	}
	if got := len(g.Neighbors(g.Rank(0, 0))); got != 2 {
		t.Errorf("corner neighbours = %d, want 2", got)
	}
	if got := len(g.Neighbors(g.Rank(1, 0))); got != 3 {
		t.Errorf("edge neighbours = %d, want 3", got)
	}
}

func TestDirectionOpposite(t *testing.T) {
	for d := West; d <= North; d++ {
		if d.Opposite().Opposite() != d {
			t.Errorf("double opposite of %v != itself", d)
		}
	}
	if East.Opposite() != West || North.Opposite() != South {
		t.Error("opposite wrong")
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction string empty")
	}
}

func TestNeighborPairsCount(t *testing.T) {
	g := Grid{Px: 5, Py: 4}
	// Horizontal pairs: (Px-1)*Py, vertical: Px*(Py-1).
	want := 4*4 + 5*3
	pairs := g.NeighborPairs()
	if len(pairs) != want {
		t.Fatalf("pairs = %d, want %d", len(pairs), want)
	}
	seen := make(map[[2]int]bool)
	for _, p := range pairs {
		if p[0] >= p[1] {
			t.Errorf("pair %v not ordered", p)
		}
		if seen[p] {
			t.Errorf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestSubgridValidation(t *testing.T) {
	parent := Grid{Px: 8, Py: 4}
	if _, err := NewSubgrid(parent, alloc.Rect{X: 6, Y: 0, W: 4, H: 4}); err == nil {
		t.Error("overflowing rect should fail")
	}
	if _, err := NewSubgrid(parent, alloc.Rect{X: 0, Y: 0, W: 0, H: 4}); err == nil {
		t.Error("empty rect should fail")
	}
	if _, err := NewSubgrid(parent, alloc.Rect{X: -1, Y: 0, W: 2, H: 2}); err == nil {
		t.Error("negative origin should fail")
	}
}

func TestSubgridRankMapping(t *testing.T) {
	parent := Grid{Px: 8, Py: 4}
	// Fig. 5(a): sibling 1 is the left 4x4 block: parent ranks 0-3,
	// 8-11, 16-19, 24-27.
	sg, err := NewSubgrid(parent, alloc.Rect{X: 0, Y: 0, W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27}
	got := sg.Ranks()
	if len(got) != len(want) {
		t.Fatalf("ranks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestSubgridLocalTopology(t *testing.T) {
	parent := Grid{Px: 8, Py: 4}
	sg, err := NewSubgrid(parent, alloc.Rect{X: 4, Y: 0, W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	local := sg.Grid()
	if local.Px != 4 || local.Py != 4 {
		t.Fatalf("local grid = %+v", local)
	}
	// Local rank 0 is parent rank 4 (Fig. 5a sibling 2 starts at column 4).
	if sg.GlobalRank(0) != 4 {
		t.Errorf("GlobalRank(0) = %d, want 4", sg.GlobalRank(0))
	}
	// Local east neighbour of local 0 is parent 5.
	le := local.Neighbor(0, East)
	if sg.GlobalRank(le) != 5 {
		t.Errorf("east neighbour global = %d, want 5", sg.GlobalRank(le))
	}
}

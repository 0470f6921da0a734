package mapping

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// The running example of the paper's Figs. 5-6: 32 processes in an 8x4
// virtual grid on a 4x4x2 torus, split into two 4x4 sibling partitions.
func paperExample(t *testing.T) (vtopo.Grid, torus.Torus, []alloc.Rect) {
	t.Helper()
	g, err := vtopo.NewGrid(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := torus.New(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rects := []alloc.Rect{{X: 0, Y: 0, W: 4, H: 4}, {X: 4, Y: 0, W: 4, H: 4}}
	return g, tor, rects
}

func TestSequentialMatchesFig5b(t *testing.T) {
	g, tor, _ := paperExample(t)
	m, err := Sequential(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 5(b): processes 0-3 on the topmost row of the first plane.
	for r := 0; r < 4; r++ {
		c := m.NodeOf(r)
		if c.Y != 0 || c.Z != 0 || c.X != r {
			t.Errorf("rank %d at %v, want (%d,0,0)", r, c, r)
		}
	}
	// "0 and 8 are neighbours in the 2D topology whereas they are 2 hops
	// apart in the torus."
	if got := m.Hops(0, 8); got != 2 {
		t.Errorf("Hops(0,8) = %d, want 2", got)
	}
	// "process 8 is 3 hops away from process 16".
	if got := m.Hops(8, 16); got != 3 {
		t.Errorf("Hops(8,16) = %d, want 3", got)
	}
}

func TestMultiLevelOneHopProperty(t *testing.T) {
	g, tor, _ := paperExample(t)
	m, err := MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// With fy == 1 every parent-grid neighbour pair is exactly 1 hop
	// apart: "this universal mapping scheme benefits both the nested
	// simulations and the parent simulation".
	for _, p := range g.NeighborPairs() {
		if got := m.Hops(p[0], p[1]); got != 1 {
			t.Errorf("pair %v: hops = %d, want 1", p, got)
		}
	}
}

func TestPartitionMappingContiguousPlanes(t *testing.T) {
	g, tor, rects := paperExample(t)
	m, err := PartitionMapping(g, tor, rects)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 6(a): sibling 1 occupies the z=0 plane, sibling 2 the z=1
	// plane.
	sg1, _ := vtopo.NewSubgrid(g, rects[0])
	for _, r := range sg1.Ranks() {
		if m.NodeOf(r).Z != 0 {
			t.Errorf("sibling-1 rank %d at %v, want z=0", r, m.NodeOf(r))
		}
	}
	sg2, _ := vtopo.NewSubgrid(g, rects[1])
	for _, r := range sg2.Ranks() {
		if m.NodeOf(r).Z != 1 {
			t.Errorf("sibling-2 rank %d at %v, want z=1", r, m.NodeOf(r))
		}
	}
	// Intra-sibling neighbours are 1 hop apart.
	for _, sg := range []vtopo.Subgrid{sg1, sg2} {
		local := sg.Grid()
		for _, p := range local.NeighborPairs() {
			a, b := sg.GlobalRank(p[0]), sg.GlobalRank(p[1])
			if got := m.Hops(a, b); got != 1 {
				t.Errorf("sibling pair (%d,%d): hops = %d, want 1", a, b, got)
			}
		}
	}
}

func TestMappingQualityOrdering(t *testing.T) {
	g, tor, rects := paperExample(t)
	seq, err := Sequential(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionMapping(g, tor, rects)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	rSeq, err := Analyze(seq, rects)
	if err != nil {
		t.Fatal(err)
	}
	rPart, err := Analyze(part, rects)
	if err != nil {
		t.Fatal(err)
	}
	rMulti, err := Analyze(multi, rects)
	if err != nil {
		t.Fatal(err)
	}
	if !(rMulti.OverallAvg <= rPart.OverallAvg && rPart.OverallAvg < rSeq.OverallAvg) {
		t.Errorf("avg hops: multi %v, partition %v, sequential %v — expected multi <= partition < sequential",
			rMulti.OverallAvg, rPart.OverallAvg, rSeq.OverallAvg)
	}
	// Partition mapping optimizes the siblings at the possible expense of
	// the parent seam (Fig. 6(a): "process 3 is 2 hops away from process
	// 4").
	for i := range rPart.SiblingAvg {
		if rPart.SiblingAvg[i] != 1 {
			t.Errorf("partition mapping sibling %d avg hops = %v, want 1", i, rPart.SiblingAvg[i])
		}
	}
}

func TestTXYZ(t *testing.T) {
	g, _ := vtopo.NewGrid(8, 4)
	tor, _ := torus.New(4, 4, 2)
	m, err := TXYZ(g, tor, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Consecutive rank pairs share a "node": adjacent z slots.
	if got := m.Hops(0, 1); got != 1 {
		t.Errorf("Hops(0,1) = %d", got)
	}
	c0, c1 := m.NodeOf(0), m.NodeOf(1)
	if c0.X != c1.X || c0.Y != c1.Y {
		t.Errorf("ranks 0,1 should differ only in z: %v vs %v", c0, c1)
	}
	if _, err := TXYZ(g, tor, 3); !errors.Is(err, ErrBadTDim) {
		t.Errorf("T=3 on Z=2: err = %v", err)
	}
}

func TestSizeMismatch(t *testing.T) {
	g, _ := vtopo.NewGrid(8, 4)
	tor, _ := torus.New(4, 4, 4)
	if _, err := Sequential(g, tor); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("err = %v, want ErrSizeMismatch", err)
	}
	if _, err := MultiLevel(g, tor); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("err = %v, want ErrSizeMismatch", err)
	}
	if _, err := TXYZ(g, tor, 2); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("err = %v, want ErrSizeMismatch", err)
	}
	if _, err := PartitionMapping(g, tor, nil); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("err = %v, want ErrSizeMismatch", err)
	}
}

func TestMultiLevelNotFoldable(t *testing.T) {
	g, _ := vtopo.NewGrid(6, 6)
	tor, _ := torus.New(4, 3, 3)
	if _, err := MultiLevel(g, tor); !errors.Is(err, ErrNotFoldable) {
		t.Errorf("err = %v, want ErrNotFoldable", err)
	}
	// Divisible stripes but wrong Z.
	g2, _ := vtopo.NewGrid(8, 8)
	tor2, _ := torus.New(4, 4, 4)
	if _, err := MultiLevel(g2, tor2); err != nil {
		t.Errorf("8x8 onto 4x4x4 should fold (fx=2, fy=2): %v", err)
	}
	// When the grid and torus have equal sizes and both stripe counts
	// divide evenly, fx*fy always equals Z, so divisibility alone decides
	// foldability.
	g3, _ := vtopo.NewGrid(16, 4)
	tor3, _ := torus.New(4, 2, 8)
	if _, err := MultiLevel(g3, tor3); err != nil {
		t.Errorf("16x4 onto 4x2x8 should fold (fx=4, fy=2): %v", err)
	}
}

// The BG/L production shape: 1024 cores as a 32x32 grid on an 8x8x16
// core-torus (fx=4, fy=4). All x-neighbours must be 1 hop; the average
// over all pairs must be well under the sequential mapping's.
func TestMultiLevelBGLShape(t *testing.T) {
	g, _ := vtopo.NewGrid(32, 32)
	tor, _ := torus.New(8, 8, 16)
	m, err := MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 32; y++ {
		for x := 0; x+1 < 32; x++ {
			a, b := g.Rank(x, y), g.Rank(x+1, y)
			if got := m.Hops(a, b); got != 1 {
				t.Fatalf("x-pair (%d,%d) at y=%d: hops = %d, want 1", x, x+1, y, got)
			}
		}
	}
	seq, _ := Sequential(g, tor)
	pairs := g.NeighborPairs()
	if mAvg, sAvg := AvgHops(m, pairs), AvgHops(seq, pairs); mAvg >= sAvg/1.5 {
		t.Errorf("multilevel avg %v not clearly below sequential %v", mAvg, sAvg)
	}
}

func TestPartitionMappingUnequalPartitions(t *testing.T) {
	// 4 siblings in Table 2 proportions on a 32x32 grid, 8x8x16 torus.
	g, _ := vtopo.NewGrid(32, 32)
	tor, _ := torus.New(8, 8, 16)
	weights := []float64{432, 144, 168, 280}
	rects, err := alloc.Partition(weights, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	m, err := PartitionMapping(g, tor, rects)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(m, rects)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := Sequential(g, tor)
	repSeq, err := Analyze(seq, rects)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.SiblingAvg {
		if rep.SiblingAvg[i] >= repSeq.SiblingAvg[i] {
			t.Errorf("sibling %d: partition avg %v not below sequential %v",
				i, rep.SiblingAvg[i], repSeq.SiblingAvg[i])
		}
	}
}

func TestAvgMaxHopsEmptyPairs(t *testing.T) {
	g, _ := vtopo.NewGrid(2, 2)
	tor, _ := torus.New(2, 2, 1)
	m, err := Sequential(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	if AvgHops(m, nil) != 0 || MaxHops(m, nil) != 0 {
		t.Error("empty pairs should give 0")
	}
}

func TestSerpentineRanksAdjacent(t *testing.T) {
	g := vtopo.Grid{Px: 5, Py: 4}
	ranks := serpentineRanks(g)
	if len(ranks) != 20 {
		t.Fatalf("len = %d", len(ranks))
	}
	seen := make(map[int]bool)
	for i, r := range ranks {
		if seen[r] {
			t.Fatalf("duplicate rank %d", r)
		}
		seen[r] = true
		if i > 0 {
			x0, y0 := g.Coord(ranks[i-1])
			x1, y1 := g.Coord(r)
			if abs(x0-x1)+abs(y0-y1) != 1 {
				t.Fatalf("serpentine step %d not grid-adjacent: (%d,%d)->(%d,%d)", i, x0, y0, x1, y1)
			}
		}
	}
}

func TestSerpentineCoordAdjacent(t *testing.T) {
	tor := torus.Torus{X: 4, Y: 3, Z: 3}
	prev := serpentineCoord(tor, 0)
	seen := map[torus.Coord]bool{prev: true}
	for i := 1; i < tor.Nodes(); i++ {
		c := serpentineCoord(tor, i)
		if seen[c] {
			t.Fatalf("duplicate coord %v at index %d", c, i)
		}
		seen[c] = true
		if tor.Hops(prev, c) != 1 {
			t.Fatalf("serpentine step %d: %v -> %v is %d hops", i, prev, c, tor.Hops(prev, c))
		}
		prev = c
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func BenchmarkMultiLevel1024(b *testing.B) {
	g, _ := vtopo.NewGrid(32, 32)
	tor, _ := torus.New(8, 8, 16)
	for i := 0; i < b.N; i++ {
		if _, err := MultiLevel(g, tor); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze1024(b *testing.B) {
	g, _ := vtopo.NewGrid(32, 32)
	tor, _ := torus.New(8, 8, 16)
	rects, err := alloc.Partition([]float64{0.4, 0.3, 0.3}, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	m, err := MultiLevel(g, tor)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(m, rects); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRenderPlanes(t *testing.T) {
	g, tor, _ := paperExample(t)
	m, err := Sequential(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	out := m.RenderPlanes()
	// Fig. 5(b): first plane's top row is ranks 0..3.
	if !strings.Contains(out, "z=0\n 0  1  2  3") {
		t.Errorf("render missing Fig. 5(b) top row:\n%s", out)
	}
	if !strings.Contains(out, "z=1") {
		t.Errorf("render missing second plane:\n%s", out)
	}
	// Every rank appears exactly once.
	for r := 0; r < 32; r++ {
		want := fmt.Sprintf("%2d", r)
		if c := strings.Count(out, want); c < 1 {
			t.Errorf("rank %d missing from render (%q appears %d times)", r, want, c)
		}
	}
}

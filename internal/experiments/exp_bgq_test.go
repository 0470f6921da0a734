package experiments

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/vtopo"
)

// bgqShapes are the ten BG/Q core-tori, 32 to 16384 cores, that the
// retired general-purpose 5D torus package supported; bgqTori prints
// four of them.
var bgqShapes = []struct {
	cores int
	dims  [5]int
}{
	{32, [5]int{4, 2, 2, 2, 1}},
	{64, [5]int{4, 4, 2, 2, 1}},
	{128, [5]int{4, 4, 4, 2, 1}},
	{256, [5]int{4, 4, 4, 2, 2}},
	{512, [5]int{4, 4, 4, 4, 2}},
	{1024, [5]int{8, 4, 4, 4, 2}},
	{2048, [5]int{8, 8, 4, 4, 2}},
	{4096, [5]int{8, 8, 8, 4, 2}},
	{8192, [5]int{8, 8, 8, 8, 2}},
	{16384, [5]int{16, 8, 8, 8, 2}},
}

// bgqMappings returns the grid and the fold and oblivious placements of
// one shape.
func bgqMappings(t *testing.T, cores int, dims [5]int) (g vtopo.Grid, fold, obl [][5]int) {
	t.Helper()
	g, err := machine.GridFor(cores)
	if err != nil {
		t.Fatal(err)
	}
	xmask, ok := splitDims(dims, g)
	if !ok {
		t.Fatalf("cores=%d: no split of %v for %dx%d", cores, dims, g.Px, g.Py)
	}
	for r := 0; r < cores; r++ {
		x, y := g.Coord(r)
		fold = append(fold, fold5(dims, xmask, x, y))
		obl = append(obl, oblivious5(dims, r))
	}
	return g, fold, obl
}

// checkBijection fails unless nodes places every rank on a distinct
// node inside the torus and covers all of it.
func checkBijection(t *testing.T, name string, dims [5]int, nodes [][5]int) {
	t.Helper()
	size := 1
	for _, d := range dims {
		size *= d
	}
	if len(nodes) != size {
		t.Fatalf("%s: %d ranks on a %d-node torus", name, len(nodes), size)
	}
	seen := make(map[[5]int]int, len(nodes))
	for r, c := range nodes {
		for i, d := range dims {
			if c[i] < 0 || c[i] >= d {
				t.Fatalf("%s: rank %d at %v, outside %v", name, r, c, dims)
			}
		}
		if prev, dup := seen[c]; dup {
			t.Fatalf("%s: ranks %d and %d both at %v", name, prev, r, c)
		}
		seen[c] = r
	}
}

// The fold and oblivious coordinates of every rank on all ten shapes,
// five bytes per rank, shapes in increasing core count. The literals
// were recorded on the general-purpose 5D torus package (Fold over
// SplitFor's dimensions, Oblivious) before it was folded in here.
func TestBGQCoordDigests(t *testing.T) {
	const (
		wantFold = "68dbc606817b358cff1217bed8ad9b72ae6f83c191e1cfcfe6f6ff2251fb3d40"
		wantObl  = "72a82f64971b4f53662ee60d232f2f705d03d61a35dd5dd7e1983b8ae14b7a8a"
	)
	hf, ho := sha256.New(), sha256.New()
	for _, s := range bgqShapes {
		_, fold, obl := bgqMappings(t, s.cores, s.dims)
		checkBijection(t, fmt.Sprintf("fold %d", s.cores), s.dims, fold)
		checkBijection(t, fmt.Sprintf("oblivious %d", s.cores), s.dims, obl)
		for r := range fold {
			for i := range fold[r] {
				hf.Write([]byte{byte(fold[r][i])})
				ho.Write([]byte{byte(obl[r][i])})
			}
		}
	}
	if got := fmt.Sprintf("%x", hf.Sum(nil)); got != wantFold {
		t.Errorf("fold digest %s, want %s", got, wantFold)
	}
	if got := fmt.Sprintf("%x", ho.Sum(nil)); got != wantObl {
		t.Errorf("oblivious digest %s, want %s", got, wantObl)
	}
	for _, tor := range bgqTori {
		found := false
		for _, s := range bgqShapes {
			found = found || s == tor
		}
		if !found {
			t.Errorf("printed torus %d %v is not a pinned shape", tor.cores, tor.dims)
		}
	}
}

// The headline property: the generalized fold puts every neighbouring
// rank pair exactly one hop apart on the 5D torus.
func TestBGQFoldOneHopEverywhere(t *testing.T) {
	for _, s := range bgqShapes[:9] {
		g, fold, _ := bgqMappings(t, s.cores, s.dims)
		for _, p := range g.NeighborPairs() {
			if h := hops5(s.dims, fold[p[0]], fold[p[1]]); h != 1 {
				t.Fatalf("cores=%d: pair %v is %d hops", s.cores, p, h)
			}
		}
	}
}

func TestBGQFoldBeatsOblivious(t *testing.T) {
	s := bgqShapes[8]
	g, fold, obl := bgqMappings(t, s.cores, s.dims)
	pairs := g.NeighborPairs()
	fAvg, fMax := neighbourHops(pairs, s.dims, func(r int) [5]int { return fold[r] })
	oAvg, _ := neighbourHops(pairs, s.dims, func(r int) [5]int { return obl[r] })
	t.Logf("avg hops on BG/Q %d: oblivious %.2f, fold %.2f", s.cores, oAvg, fAvg)
	if fAvg != 1 || fMax != 1 {
		t.Errorf("fold avg/max hops = %v/%d, want exactly 1/1", fAvg, fMax)
	}
	if oAvg <= 1.2 {
		t.Errorf("oblivious avg hops = %v suspiciously low", oAvg)
	}
}

func TestBGQSplitDims(t *testing.T) {
	dims := [5]int{8, 8, 8, 8, 2}
	g, err := machine.GridFor(8192)
	if err != nil {
		t.Fatal(err)
	}
	xmask, ok := splitDims(dims, g)
	if !ok {
		t.Fatalf("no split for %dx%d", g.Px, g.Py)
	}
	px := 1
	for i, d := range dims {
		if xmask&(1<<i) != 0 {
			px *= d
		}
	}
	if px != g.Px {
		t.Errorf("split product %d != Px %d", px, g.Px)
	}
	// No subset of {8,8,8,8,2} multiplies to 4.
	if mask, ok := splitDims(dims, vtopo.Grid{Px: 4, Py: 2048}); ok {
		t.Errorf("4x2048 on %v split as mask %b", dims, mask)
	}
	if mask, ok := splitDims(dims, vtopo.Grid{Px: 16, Py: 8}); ok {
		t.Errorf("128-rank grid on an 8192-node torus split as mask %b", mask)
	}
}

// Reflected mixed-radix expansion: consecutive values differ in exactly
// one digit by exactly one.
func TestBGQFoldGrayProperty(t *testing.T) {
	dims := [5]int{3, 4, 2, 5, 2}
	const all = 1<<5 - 1
	prev := fold5(dims, all, 0, 0)
	for v := 1; v < 3*4*2*5*2; v++ {
		c := fold5(dims, all, v, 0)
		diffs := 0
		for i := range c {
			if d := c[i] - prev[i]; d != 0 {
				diffs++
				if d != 1 && d != -1 {
					t.Fatalf("v=%d: digit %d jumped by %d", v, i, d)
				}
			}
		}
		if diffs != 1 {
			t.Fatalf("v=%d: %d digits changed (%v -> %v)", v, diffs, prev, c)
		}
		prev = c
	}
}

func TestBGQHops(t *testing.T) {
	dims := [5]int{4, 4, 4, 4, 2}
	a := [5]int{}
	if got := hops5(dims, a, [5]int{1, 0, 0, 0, 0}); got != 1 {
		t.Errorf("1 step = %d hops", got)
	}
	if got := hops5(dims, a, [5]int{3, 0, 0, 0, 0}); got != 1 {
		t.Errorf("wraparound = %d hops", got)
	}
	if got := hops5(dims, a, [5]int{2, 2, 2, 2, 1}); got != 9 {
		t.Errorf("far corner = %d hops", got)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x := oblivious5(dims, rng.Intn(512))
		y := oblivious5(dims, rng.Intn(512))
		if hops5(dims, x, y) != hops5(dims, y, x) {
			t.Fatalf("asymmetric hops for %v %v", x, y)
		}
	}
}

package experiments

import (
	"fmt"

	"nestwrf/internal/machine"
	"nestwrf/internal/vtopo"
)

// bgqTori are Blue Gene/Q-style 5D core-tori: the 16 cores of a node
// folded into the node torus's dimensions, with the E dimension of
// real BG/Q hardware (2) last.
var bgqTori = []struct {
	cores int
	dims  [5]int
}{
	{512, [5]int{4, 4, 4, 4, 2}},
	{2048, [5]int{8, 8, 4, 4, 2}},
	{8192, [5]int{8, 8, 8, 8, 2}},
	{16384, [5]int{16, 8, 8, 8, 2}},
}

// bgq evaluates the paper's future-work mapping (Section 6) on BG/Q
// style 5D core-tori. The multi-level fold of Section 3.3.2
// generalizes: a subset of the five torus dimensions serves the grid's
// x extent and the rest serve y, and each grid coordinate is expanded
// in reflected mixed-radix digits (the boustrophedon fold applied
// recursively). Consecutive values then differ by one step in exactly
// one dimension, so every neighbouring rank pair is one hop apart.
func bgq() (*Table, error) {
	t := &Table{
		ID:     "bgq",
		Title:  "2D process grids folded onto 5D BG/Q tori: average/maximum neighbour hops",
		Header: []string{"cores", "grid", "torus (A,B,C,D,E)", "oblivious avg", "oblivious max", "fold avg", "fold max"},
	}
	for _, tor := range bgqTori {
		g, err := machine.GridFor(tor.cores)
		if err != nil {
			return nil, err
		}
		xmask, ok := splitDims(tor.dims, g)
		if !ok {
			return nil, fmt.Errorf("bgq: no split of torus %v matches grid %dx%d", tor.dims, g.Px, g.Py)
		}
		pairs := g.NeighborPairs()
		oAvg, oMax := neighbourHops(pairs, tor.dims, func(r int) [5]int { return oblivious5(tor.dims, r) })
		fAvg, fMax := neighbourHops(pairs, tor.dims, func(r int) [5]int {
			x, y := g.Coord(r)
			return fold5(tor.dims, xmask, x, y)
		})
		t.AddRow(
			fmt.Sprintf("%d", tor.cores),
			fmt.Sprintf("%dx%d", g.Px, g.Py),
			fmt.Sprintf("%v", tor.dims),
			f(oAvg, 2),
			fmt.Sprintf("%d", oMax),
			f(fAvg, 2),
			fmt.Sprintf("%d", fMax),
		)
	}
	t.AddNote("the reflected mixed-radix fold generalizes the multi-level mapping of Section 3.3.2 to any torus dimensionality: every neighbouring rank pair — of the parent and of every sibling partition — lands exactly 1 hop apart")
	return t, nil
}

// splitDims returns the first dimension mask (bit i set: dimension i
// serves x) whose x dimensions multiply to g.Px and whose others
// multiply to g.Py; ok is false when no mask does.
func splitDims(dims [5]int, g vtopo.Grid) (xmask int, ok bool) {
	for mask := 0; mask < 1<<5; mask++ {
		px, py := 1, 1
		for i, d := range dims {
			if mask&(1<<i) != 0 {
				px *= d
			} else {
				py *= d
			}
		}
		if px == g.Px && py == g.Py {
			return mask, true
		}
	}
	return 0, false
}

// oblivious5 places rank r on the r-th node in linear order, dimension
// 0 fastest: the 5D analogue of Fig. 5(b).
func oblivious5(dims [5]int, r int) [5]int {
	var c [5]int
	for i, d := range dims {
		c[i], r = r%d, r/d
	}
	return c
}

// fold5 expands grid coordinate (x, y) in reflected mixed-radix digits
// over dimensions 0…4, each digit taken from x when xmask has its bit
// and from y otherwise. A digit is mirrored when the quotient left
// above it is odd, so incrementing x or y changes exactly one digit
// by ±1.
func fold5(dims [5]int, xmask, x, y int) [5]int {
	var c [5]int
	for i, d := range dims {
		v := &y
		if xmask&(1<<i) != 0 {
			v = &x
		}
		q, r := *v/d, *v%d
		if q%2 == 1 {
			r = d - 1 - r
		}
		c[i], *v = r, q
	}
	return c
}

// hops5 is the wraparound Manhattan distance between two torus nodes.
func hops5(dims [5]int, a, b [5]int) int {
	total := 0
	for i, d := range dims {
		delta := a[i] - b[i]
		if delta < 0 {
			delta = -delta
		}
		total += min(delta, d-delta)
	}
	return total
}

// neighbourHops returns the average and maximum torus distance over
// the rank pairs, rank r placed at node(r).
func neighbourHops(pairs [][2]int, dims [5]int, node func(r int) [5]int) (avg float64, maxHops int) {
	total := 0
	for _, p := range pairs {
		h := hops5(dims, node(p[0]), node(p[1]))
		total += h
		if h > maxHops {
			maxHops = h
		}
	}
	return float64(total) / float64(len(pairs)), maxHops
}

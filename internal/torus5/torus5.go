// Package torus5 implements the paper's future-work item: mapping the
// 2D virtual process topologies of nested weather simulations onto the
// 5D torus of IBM Blue Gene/Q ("In future, we plan to ... develop novel
// schemes for the 5D torus topology of Blue Gene/Q system",
// Section 6).
//
// The multi-level fold of Section 3.3.2 generalizes: assign a subset of
// the five torus dimensions to the grid's x extent and the rest to y,
// and expand each grid coordinate in *reflected mixed-radix* digits
// (the boustrophedon fold applied recursively). Consecutive values then
// differ by one step in exactly one torus dimension, so every
// neighbouring rank pair of the parent domain — and of every sibling
// partition — is exactly one hop apart.
package torus5

import (
	"errors"
	"fmt"

	"nestwrf/internal/vtopo"
)

// Torus is a 5D torus; unused trailing dimensions may be 1.
type Torus struct {
	Dims [5]int
}

// Coord is a 5D torus coordinate.
type Coord [5]int

// New returns a 5D torus with the given dimensions.
func New(a, b, c, d, e int) (Torus, error) {
	t := Torus{Dims: [5]int{a, b, c, d, e}}
	for _, d := range t.Dims {
		if d <= 0 {
			return Torus{}, fmt.Errorf("torus5: dimensions must be positive: %v", t.Dims)
		}
	}
	return t, nil
}

// Nodes returns the number of nodes.
func (t Torus) Nodes() int {
	n := 1
	for _, d := range t.Dims {
		n *= d
	}
	return n
}

// Valid reports whether c lies inside t.
func (t Torus) Valid(c Coord) bool {
	for i, d := range t.Dims {
		if c[i] < 0 || c[i] >= d {
			return false
		}
	}
	return true
}

// Hops returns the wraparound Manhattan distance between two nodes.
func (t Torus) Hops(a, b Coord) int {
	total := 0
	for i, d := range t.Dims {
		delta := a[i] - b[i]
		if delta < 0 {
			delta = -delta
		}
		if wrap := d - delta; wrap < delta {
			delta = wrap
		}
		total += delta
	}
	return total
}

// Index returns the linear index of c with dimension 0 varying fastest.
func (t Torus) Index(c Coord) int {
	idx, stride := 0, 1
	for i, d := range t.Dims {
		idx += c[i] * stride
		stride *= d
	}
	return idx
}

// CoordOf returns the coordinate of linear index i.
func (t Torus) CoordOf(i int) Coord {
	var c Coord
	for k, d := range t.Dims {
		c[k] = i % d
		i /= d
	}
	return c
}

// Mapping assigns ranks of a 2D grid to 5D torus nodes.
type Mapping struct {
	Grid   vtopo.Grid
	Torus  Torus
	Name   string
	nodeOf []Coord
}

// Hops returns the torus distance between two ranks.
func (m *Mapping) Hops(a, b int) int { return m.Torus.Hops(m.nodeOf[a], m.nodeOf[b]) }

// Validate checks bijectivity.
func (m *Mapping) Validate() error {
	if len(m.nodeOf) != m.Grid.Size() {
		return fmt.Errorf("torus5: mapping %q has %d entries for %d ranks", m.Name, len(m.nodeOf), m.Grid.Size())
	}
	seen := make(map[Coord]int, len(m.nodeOf))
	for r, c := range m.nodeOf {
		if !m.Torus.Valid(c) {
			return fmt.Errorf("torus5: rank %d mapped to invalid %v", r, c)
		}
		if prev, dup := seen[c]; dup {
			return fmt.Errorf("torus5: ranks %d and %d both at %v", prev, r, c)
		}
		seen[c] = r
	}
	return nil
}

// AvgHops returns the mean hop distance over rank pairs.
func AvgHops(m *Mapping, pairs [][2]int) float64 {
	if len(pairs) == 0 {
		return 0
	}
	total := 0
	for _, p := range pairs {
		total += m.Hops(p[0], p[1])
	}
	return float64(total) / float64(len(pairs))
}

// MaxHops returns the maximum hop distance over rank pairs.
func MaxHops(m *Mapping, pairs [][2]int) int {
	max := 0
	for _, p := range pairs {
		if h := m.Hops(p[0], p[1]); h > max {
			max = h
		}
	}
	return max
}

// Errors.
var (
	ErrSizeMismatch = errors.New("torus5: grid size != torus node count")
	ErrNoSplit      = errors.New("torus5: no dimension split matches the grid extents")
)

// Oblivious places ranks in increasing order on nodes in linear
// (dimension-0 fastest) order, the 5D analogue of Fig. 5(b).
func Oblivious(g vtopo.Grid, t Torus) (*Mapping, error) {
	if g.Size() != t.Nodes() {
		return nil, fmt.Errorf("%w: %d vs %d", ErrSizeMismatch, g.Size(), t.Nodes())
	}
	m := &Mapping{Grid: g, Torus: t, Name: "oblivious", nodeOf: make([]Coord, g.Size())}
	for r := range m.nodeOf {
		m.nodeOf[r] = t.CoordOf(r)
	}
	return m, nil
}

// SplitFor finds a partition of the five torus dimensions into an
// x-subset whose sizes multiply to g.Px and a y-subset multiplying to
// g.Py. It returns the x-subset as dimension indices (the remaining
// dimensions serve y).
func SplitFor(g vtopo.Grid, t Torus) ([]int, error) {
	if g.Size() != t.Nodes() {
		return nil, fmt.Errorf("%w: %d vs %d", ErrSizeMismatch, g.Size(), t.Nodes())
	}
	for mask := 0; mask < 1<<5; mask++ {
		px, py := 1, 1
		for i, d := range t.Dims {
			if mask&(1<<i) != 0 {
				px *= d
			} else {
				py *= d
			}
		}
		if px == g.Px && py == g.Py {
			var xdims []int
			for i := 0; i < 5; i++ {
				if mask&(1<<i) != 0 {
					xdims = append(xdims, i)
				}
			}
			return xdims, nil
		}
	}
	return nil, fmt.Errorf("%w: grid %dx%d on torus %v", ErrNoSplit, g.Px, g.Py, t.Dims)
}

// Fold is the generalized multi-level mapping: grid x is expanded in
// reflected mixed-radix digits over the xdims dimensions (fastest
// first) and grid y over the remaining dimensions. Every grid-neighbour
// pair maps exactly one hop apart.
func Fold(g vtopo.Grid, t Torus, xdims []int) (*Mapping, error) {
	if g.Size() != t.Nodes() {
		return nil, fmt.Errorf("%w: %d vs %d", ErrSizeMismatch, g.Size(), t.Nodes())
	}
	inX := map[int]bool{}
	px := 1
	for _, i := range xdims {
		if i < 0 || i >= 5 || inX[i] {
			return nil, fmt.Errorf("torus5: bad x dimension index %d", i)
		}
		inX[i] = true
		px *= t.Dims[i]
	}
	var ydims []int
	py := 1
	for i := 0; i < 5; i++ {
		if !inX[i] {
			ydims = append(ydims, i)
			py *= t.Dims[i]
		}
	}
	if px != g.Px || py != g.Py {
		return nil, fmt.Errorf("%w: split gives %dx%d, grid is %dx%d", ErrNoSplit, px, py, g.Px, g.Py)
	}
	m := &Mapping{Grid: g, Torus: t, Name: "fold5d", nodeOf: make([]Coord, g.Size())}
	for r := range m.nodeOf {
		x, y := g.Coord(r)
		var c Coord
		writeReflected(&c, t, xdims, x)
		writeReflected(&c, t, ydims, y)
		m.nodeOf[r] = c
	}
	return m, nil
}

// writeReflected expands v in reflected mixed-radix digits over the
// given dimensions (fastest first): each digit is mirrored when the
// remaining quotient is odd, which is exactly the boustrophedon fold —
// incrementing v changes exactly one digit by ±1.
func writeReflected(c *Coord, t Torus, dims []int, v int) {
	for _, i := range dims {
		d := t.Dims[i]
		q, r := v/d, v%d
		if q%2 == 1 {
			r = d - 1 - r
		}
		c[i] = r
		v = q
	}
}

// BGQTorusFor returns a Blue Gene/Q-style 5D core-torus for the given
// core count (16 cores per node folded into the node torus's
// dimensions; the E dimension of real BG/Q hardware is 2). Supported
// counts are powers of two from 32 to 16384.
func BGQTorusFor(cores int) (Torus, error) {
	shapes := map[int][5]int{
		32:    {4, 2, 2, 2, 1},
		64:    {4, 4, 2, 2, 1},
		128:   {4, 4, 4, 2, 1},
		256:   {4, 4, 4, 2, 2},
		512:   {4, 4, 4, 4, 2},
		1024:  {8, 4, 4, 4, 2},
		2048:  {8, 8, 4, 4, 2},
		4096:  {8, 8, 8, 4, 2},
		8192:  {8, 8, 8, 8, 2},
		16384: {16, 8, 8, 8, 2},
	}
	s, ok := shapes[cores]
	if !ok {
		return Torus{}, fmt.Errorf("torus5: unsupported BG/Q core count %d", cores)
	}
	return New(s[0], s[1], s[2], s[3], s[4])
}

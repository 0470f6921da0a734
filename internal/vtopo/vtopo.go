// Package vtopo models the 2D virtual process topologies of WRF-style
// weather codes (paper Fig. 5a): the parent simulation decomposes its
// domain over a Px × Py process grid, and each nested simulation runs
// on a rectangular sub-grid of it with its own local topology.
package vtopo

import (
	"errors"
	"fmt"

	"nestwrf/internal/alloc"
)

// Grid is a 2D process grid with Px columns and Py rows. Ranks are
// row-major with x varying fastest: rank = y*Px + x, matching the
// process numbering of the paper's Fig. 5(a).
type Grid struct {
	Px, Py int
}

// ErrBadGrid is returned for non-positive grid dimensions.
var ErrBadGrid = errors.New("vtopo: grid dimensions must be positive")

// NewGrid returns a Px × Py process grid.
func NewGrid(px, py int) (Grid, error) {
	if px <= 0 || py <= 0 {
		return Grid{}, fmt.Errorf("%w: %dx%d", ErrBadGrid, px, py)
	}
	return Grid{px, py}, nil
}

// Size returns the number of processes in the grid.
func (g Grid) Size() int { return g.Px * g.Py }

// Rank returns the rank at grid position (x, y).
func (g Grid) Rank(x, y int) int { return y*g.Px + x }

// Coord returns the grid position of rank r.
func (g Grid) Coord(r int) (x, y int) { return r % g.Px, r / g.Px }

// Valid reports whether (x, y) is inside the grid.
func (g Grid) Valid(x, y int) bool {
	return x >= 0 && x < g.Px && y >= 0 && y < g.Py
}

// Direction identifies one of the four halo-exchange neighbours.
type Direction int

// The four 2D neighbour directions.
const (
	West Direction = iota
	East
	South
	North
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case West:
		return "west"
	case East:
		return "east"
	case South:
		return "south"
	case North:
		return "north"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction {
	switch d {
	case West:
		return East
	case East:
		return West
	case South:
		return North
	default:
		return South
	}
}

// Neighbor returns the rank of the neighbour of r in direction d, or
// -1 at the (non-periodic) domain boundary. Weather domains do not wrap.
func (g Grid) Neighbor(r int, d Direction) int {
	x, y := g.Coord(r)
	switch d {
	case West:
		x--
	case East:
		x++
	case South:
		y--
	case North:
		y++
	}
	if !g.Valid(x, y) {
		return -1
	}
	return g.Rank(x, y)
}

// Neighbors returns the existing neighbours of rank r in order
// West, East, South, North.
func (g Grid) Neighbors(r int) []int {
	out := make([]int, 0, 4)
	for d := West; d <= North; d++ {
		if n := g.Neighbor(r, d); n >= 0 {
			out = append(out, n)
		}
	}
	return out
}

// NeighborPairs returns every adjacent pair (a < b) of the grid, the
// communicating pairs of a halo exchange.
func (g Grid) NeighborPairs() [][2]int {
	pairs := make([][2]int, 0, 2*g.Size())
	for y := 0; y < g.Py; y++ {
		for x := 0; x < g.Px; x++ {
			r := g.Rank(x, y)
			if x+1 < g.Px {
				pairs = append(pairs, [2]int{r, g.Rank(x+1, y)})
			}
			if y+1 < g.Py {
				pairs = append(pairs, [2]int{r, g.Rank(x, y+1)})
			}
		}
	}
	return pairs
}

// Subgrid is the process grid of one nested simulation: a rectangular
// region of the parent grid with its own dense local ranks (the
// sub-communicator of Section 3 of the paper).
type Subgrid struct {
	Parent Grid
	Rect   alloc.Rect
}

// ErrBadRect is returned when a sub-rectangle does not fit its parent.
var ErrBadRect = errors.New("vtopo: rectangle outside parent grid")

// NewSubgrid returns the subgrid of parent covered by rect.
func NewSubgrid(parent Grid, rect alloc.Rect) (Subgrid, error) {
	if rect.W <= 0 || rect.H <= 0 || rect.X < 0 || rect.Y < 0 ||
		rect.X+rect.W > parent.Px || rect.Y+rect.H > parent.Py {
		return Subgrid{}, fmt.Errorf("%w: %v in %dx%d", ErrBadRect, rect, parent.Px, parent.Py)
	}
	return Subgrid{Parent: parent, Rect: rect}, nil
}

// Size returns the number of processes in the subgrid.
func (s Subgrid) Size() int { return s.Rect.Area() }

// Grid returns the local process grid of the subgrid.
func (s Subgrid) Grid() Grid { return Grid{Px: s.Rect.W, Py: s.Rect.H} }

// GlobalRank converts a local rank to the corresponding parent rank.
func (s Subgrid) GlobalRank(local int) int {
	lx, ly := s.Grid().Coord(local)
	return s.Parent.Rank(s.Rect.X+lx, s.Rect.Y+ly)
}

// Ranks returns the parent ranks belonging to the subgrid in local
// rank order.
func (s Subgrid) Ranks() []int {
	out := make([]int, s.Size())
	for l := range out {
		out[l] = s.GlobalRank(l)
	}
	return out
}

// Package torus models the 3D torus interconnect of IBM Blue Gene/L
// and Blue Gene/P systems (paper Section 3.3): node coordinates,
// minimal wraparound hop distances, and the dimension-ordered routes
// used to account per-link traffic in the network simulator.
//
// The model treats each core as a torus endpoint; virtual-node mode
// (multiple cores per node) is represented by folding the intra-node
// "T" dimension into Z, which slightly overestimates intra-node hop
// cost (one cheap hop instead of zero) and is noted in DESIGN.md.
package torus

import (
	"errors"
	"fmt"
)

// Torus describes a 3D torus with the given dimensions.
type Torus struct {
	X, Y, Z int
}

// Coord is the coordinate of a node in the torus.
type Coord struct {
	X, Y, Z int
}

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// ErrBadDims is returned for non-positive torus dimensions.
var ErrBadDims = errors.New("torus: dimensions must be positive")

// New returns a torus with the given dimensions.
func New(x, y, z int) (Torus, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return Torus{}, fmt.Errorf("%w: %dx%dx%d", ErrBadDims, x, y, z)
	}
	return Torus{x, y, z}, nil
}

// Nodes returns the number of nodes in the torus.
func (t Torus) Nodes() int { return t.X * t.Y * t.Z }

// Valid reports whether c is a coordinate inside t.
func (t Torus) Valid(c Coord) bool {
	return c.X >= 0 && c.X < t.X && c.Y >= 0 && c.Y < t.Y && c.Z >= 0 && c.Z < t.Z
}

// Index returns the linear index of c with x varying fastest.
func (t Torus) Index(c Coord) int {
	return c.X + t.X*(c.Y+t.Y*c.Z)
}

// CoordOf returns the coordinate of linear index i (x fastest).
func (t Torus) CoordOf(i int) Coord {
	q := i / t.X
	return Coord{X: i - q*t.X, Y: q - q/t.Y*t.Y, Z: q / t.Y}
}

// wrapDelta returns the signed minimal step count from a to b along a
// dimension of the given size, preferring the positive direction on
// ties. Positions on the ring (0 <= a, b < size) need no division; the
// modular definition remains as the fallback for anything else.
func wrapDelta(a, b, size int) int {
	d := b - a
	if d < 0 {
		d += size
	}
	if uint(d) >= uint(size) {
		d = ((b-a)%size + size) % size
	}
	if d*2 > size {
		return d - size
	}
	return d
}

// dimDist returns the minimal hop count between positions a and b on a
// ring of the given size.
func dimDist(a, b, size int) int {
	d := wrapDelta(a, b, size)
	if d < 0 {
		return -d
	}
	return d
}

// Hops returns the minimal number of network hops between two nodes,
// i.e. the wraparound Manhattan distance.
func (t Torus) Hops(a, b Coord) int {
	return dimDist(a.X, b.X, t.X) + dimDist(a.Y, b.Y, t.Y) + dimDist(a.Z, b.Z, t.Z)
}

// Dim identifies a torus dimension.
type Dim uint8

// The three torus dimensions.
const (
	DimX Dim = iota
	DimY
	DimZ
)

// String implements fmt.Stringer.
func (d Dim) String() string {
	switch d {
	case DimX:
		return "X"
	case DimY:
		return "Y"
	case DimZ:
		return "Z"
	}
	return fmt.Sprintf("Dim(%d)", uint8(d))
}

// Link identifies a directed link: the cable leaving node From in
// dimension Dim towards direction Dir (+1 or -1). Each physical torus
// cable appears as two Links, one per direction, matching the
// independent send/receive channels of Blue Gene hardware.
type Link struct {
	From Coord
	Dim  Dim
	Dir  int8
}

// Route returns the sequence of directed links of the dimension-ordered
// (X, then Y, then Z) minimal route from a to b, the deterministic
// routing used by Blue Gene; nil when a == b. It is the readable
// reference the allocation-free RouteIndicesInto is tested against.
func (t Torus) Route(a, b Coord) []Link {
	n := t.Hops(a, b)
	if n == 0 {
		return nil
	}
	route := make([]Link, 0, n)
	cur := a
	for dim := DimX; dim <= DimZ; dim++ {
		pos, target, size := routeAxis(cur, b, t, dim)
		delta := wrapDelta(pos, target, size)
		dir := int8(1)
		if delta < 0 {
			dir = -1
			delta = -delta
		}
		for i := 0; i < delta; i++ {
			route = append(route, Link{From: cur, Dim: dim, Dir: dir})
			cur = t.Neighbor(cur, dim, dir)
		}
	}
	return route
}

// routeAxis extracts the current position, target position and ring
// size of one routing dimension.
func routeAxis(cur, b Coord, t Torus, d Dim) (pos, target, size int) {
	switch d {
	case DimX:
		return cur.X, b.X, t.X
	case DimY:
		return cur.Y, b.Y, t.Y
	default:
		return cur.Z, b.Z, t.Z
	}
}

// LinkIndex is the dense linear index of a directed link: every node
// owns six outgoing slots (three dimensions x two directions), so all
// per-link state fits in a flat array of 6*Nodes() entries. It exists
// so the network simulator can accumulate link loads without hashing
// Link structs.
type LinkIndex int32

// LinkIndexCount returns the size of the dense link-index space,
// 6*Nodes(). Slots for links that do not physically exist (rings of
// length <= 1) are simply never produced by routes.
func (t Torus) LinkIndexCount() int { return 6 * t.Nodes() }

// LinkIndexOf returns the dense index of l.
func (t Torus) LinkIndexOf(l Link) LinkIndex {
	slot := 2 * int(l.Dim)
	if l.Dir < 0 {
		slot++
	}
	return LinkIndex(6*t.Index(l.From) + slot)
}

// LinkAt is the inverse of LinkIndexOf.
func (t Torus) LinkAt(i LinkIndex) Link {
	node, slot := int(i)/6, int(i)%6
	dir := int8(1)
	if slot%2 == 1 {
		dir = -1
	}
	return Link{From: t.CoordOf(node), Dim: Dim(slot / 2), Dir: dir}
}

// RouteIndicesInto appends the dense link indices of the
// dimension-ordered route from a to b onto buf and returns the
// extended slice. It is the allocation-free, division-free workhorse of
// the network simulator: each hop is a compare-and-wrap on the ring
// position and an add on the linear node index. Coordinates outside
// the torus are first wrapped onto it.
func (t Torus) RouteIndicesInto(a, b Coord, buf []LinkIndex) []LinkIndex {
	if !t.Valid(a) || !t.Valid(b) {
		a, b = t.wrap(a), t.wrap(b)
	}
	idx := t.Index(a)
	if a.X != b.X {
		buf, idx = walkRing(buf, idx, a.X, b.X, t.X, 1, 2*int(DimX))
	}
	if a.Y != b.Y {
		buf, idx = walkRing(buf, idx, a.Y, b.Y, t.Y, t.X, 2*int(DimY))
	}
	if a.Z != b.Z {
		buf, _ = walkRing(buf, idx, a.Z, b.Z, t.Z, t.X*t.Y, 2*int(DimZ))
	}
	return buf
}

// walkRing appends the links of the minimal walk from pos to target on
// one ring of the torus. idx is the linear index of the current node,
// stride the index distance of one step along the ring and slot the
// link slot of the ring's positive direction; the node index after the
// walk is returned with the extended buffer.
func walkRing(buf []LinkIndex, idx, pos, target, size, stride, slot int) ([]LinkIndex, int) {
	delta := wrapDelta(pos, target, size)
	wrap := stride * (size - 1) // index distance from the ring's last node back to its first
	for ; delta > 0; delta-- {
		buf = append(buf, LinkIndex(6*idx+slot))
		if pos++; pos == size {
			pos, idx = 0, idx-wrap
		} else {
			idx += stride
		}
	}
	for ; delta < 0; delta++ {
		buf = append(buf, LinkIndex(6*idx+slot+1))
		if pos--; pos < 0 {
			pos, idx = size-1, idx+wrap
		} else {
			idx -= stride
		}
	}
	return buf, idx
}

// wrap maps an arbitrary coordinate onto the torus.
func (t Torus) wrap(c Coord) Coord {
	mod := func(v, size int) int { return (v%size + size) % size }
	return Coord{X: mod(c.X, t.X), Y: mod(c.Y, t.Y), Z: mod(c.Z, t.Z)}
}

// Neighbor returns the coordinate one hop from c in dimension d,
// direction dir (with wraparound).
func (t Torus) Neighbor(c Coord, d Dim, dir int8) Coord {
	switch d {
	case DimX:
		c.X = ((c.X+int(dir))%t.X + t.X) % t.X
	case DimY:
		c.Y = ((c.Y+int(dir))%t.Y + t.Y) % t.Y
	case DimZ:
		c.Z = ((c.Z+int(dir))%t.Z + t.Z) % t.Z
	}
	return c
}

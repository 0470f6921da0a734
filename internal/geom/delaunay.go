package geom

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Triangle indexes three vertices of a Triangulation in
// counter-clockwise order.
type Triangle struct {
	A, B, C int
}

// Vertices returns the three vertex indices of t.
func (t Triangle) Vertices() [3]int { return [3]int{t.A, t.B, t.C} }

// Triangulation is a Delaunay triangulation of a planar point set. The
// paper (Section 3.1) triangulates the 13 profiled domains in the
// (aspect-ratio, total-points) plane and interpolates inside each
// triangle with barycentric coordinates.
type Triangulation struct {
	Points    []Point
	Triangles []Triangle
}

// ErrTooFewPoints is returned when fewer than three non-collinear
// points are supplied to Delaunay.
var ErrTooFewPoints = errors.New("geom: Delaunay needs at least 3 non-collinear points")

// ErrDuplicatePoint is returned when the input contains coincident
// points.
var ErrDuplicatePoint = errors.New("geom: duplicate input point")

// ErrNonFinitePoint is returned when an input coordinate is NaN or
// infinite.
var ErrNonFinitePoint = errors.New("geom: non-finite input point")

// edge is an undirected edge used during Bowyer-Watson cavity
// re-triangulation.
type edge struct {
	u, v int
}

func mkEdge(u, v int) edge {
	if u > v {
		u, v = v, u
	}
	return edge{u, v}
}

// adjacent reports whether t and u share exactly one edge (two
// vertices).
func adjacent(t, u Triangle) bool {
	shared := 0
	for _, v := range t.Vertices() {
		if v == u.A || v == u.B || v == u.C {
			shared++
		}
	}
	return shared == 2
}

// bw carries the state of an incremental Bowyer-Watson run. Instead of
// a finite super-triangle (whose vertices can fall inside the huge
// circumcircles of nearly-collinear real triples and corrupt the
// result), it uses three *ideal* ghost vertices at infinity, with all
// predicates evaluated in the limit.
type bw struct {
	pts  []Point  // real points
	dirs [3]Point // unit directions of the ideal vertices n, n+1, n+2
	n    int      // number of real points
}

func (w *bw) isIdeal(i int) bool { return i >= w.n }
func (w *bw) dir(i int) Point    { return w.dirs[i-w.n] }

func sgn(x float64) Orientation {
	switch {
	case x > 0:
		return CounterClockwise
	case x < 0:
		return Clockwise
	default:
		return Collinear
	}
}

// rotateIdealLast cyclically rotates the triple (preserving orientation
// and incircle sign) so that all real vertices precede all ideal ones.
func (w *bw) rotateIdealLast(i, j, k int) (int, int, int) {
	for r := 0; r < 3; r++ {
		ideals := 0
		if w.isIdeal(i) {
			ideals++
		}
		if w.isIdeal(j) {
			ideals++
		}
		if w.isIdeal(k) {
			ideals++
		}
		ok := false
		switch ideals {
		case 0, 3:
			ok = true
		case 1:
			ok = w.isIdeal(k)
		case 2:
			ok = !w.isIdeal(i)
		}
		if ok {
			return i, j, k
		}
		i, j, k = j, k, i
	}
	return i, j, k
}

// orient is the limit-aware orientation predicate over vertex indices.
func (w *bw) orient(i, j, k int) Orientation {
	i, j, k = w.rotateIdealLast(i, j, k)
	switch {
	case !w.isIdeal(i) && !w.isIdeal(j) && !w.isIdeal(k):
		return Orient(w.pts[i], w.pts[j], w.pts[k])
	case !w.isIdeal(i) && !w.isIdeal(j): // (real, real, ideal)
		d := w.dir(k)
		e := w.pts[j].Sub(w.pts[i])
		return sgn(e.Cross(d))
	case !w.isIdeal(i): // (real, ideal, ideal)
		return sgn(w.dir(j).Cross(w.dir(k)))
	default: // all ideal
		u, v := w.dirs[0], w.dirs[1]
		return sgn(v.Sub(u).Cross(w.dirs[2].Sub(u)))
	}
}

// incircle reports whether real point p lies inside the (limit)
// circumdisk of the CCW triangle t.
func (w *bw) incircle(t Triangle, p Point) bool {
	a, b, c := w.rotateIdealLast(t.A, t.B, t.C)
	switch {
	case !w.isIdeal(a) && !w.isIdeal(b) && !w.isIdeal(c):
		return InCircle(w.pts[a], w.pts[b], w.pts[c], p)
	case !w.isIdeal(a) && !w.isIdeal(b):
		// Ghost (a, b, ideal): the limit circumdisk is the open half-plane
		// to the left of a->b plus the open segment (a, b).
		pa, pb := w.pts[a], w.pts[b]
		switch Orient(pa, pb, p) {
		case CounterClockwise:
			return true
		case Clockwise:
			return false
		default: // collinear: inside iff strictly within the segment
			return p.X >= math.Min(pa.X, pb.X) && p.X <= math.Max(pa.X, pb.X) &&
				p.Y >= math.Min(pa.Y, pb.Y) && p.Y <= math.Max(pa.Y, pb.Y) &&
				p != pa && p != pb
		}
	case !w.isIdeal(a):
		// Ghost (a, ideal u, ideal v): limit of the incircle determinant is
		// sign((a-p).x*(u.y-v.y) - (a-p).y*(u.x-v.x)) for unit directions.
		u, v := w.dir(b), w.dir(c)
		ax, ay := w.pts[a].X-p.X, w.pts[a].Y-p.Y
		return ax*(u.Y-v.Y)-ay*(u.X-v.X) > 0
	default:
		return true // the all-ideal triangle contains every real point
	}
}

// edgeSide returns the limit orientation of real point p with respect
// to the directed edge i->j.
func (w *bw) edgeSide(i, j int, p Point) Orientation {
	switch {
	case !w.isIdeal(i) && !w.isIdeal(j):
		return Orient(w.pts[i], w.pts[j], p)
	case !w.isIdeal(i): // real -> ideal d: lim Orient(a, M·d, p) = cross(d, p-a)
		d := w.dir(j)
		return sgn(d.Cross(p.Sub(w.pts[i])))
	case !w.isIdeal(j): // ideal d -> real a: lim Orient(M·d, a, p) = cross(d, a-p)
		d := w.dir(i)
		return sgn(d.Cross(w.pts[j].Sub(p)))
	default: // ideal -> ideal
		return sgn(w.dir(i).Cross(w.dir(j)))
	}
}

// contains reports whether real point p lies inside or on the CCW
// (possibly ghost) triangle t.
func (w *bw) contains(t Triangle, p Point) bool {
	return w.edgeSide(t.A, t.B, p) != Clockwise &&
		w.edgeSide(t.B, t.C, p) != Clockwise &&
		w.edgeSide(t.C, t.A, p) != Clockwise
}

// ccw returns t reordered counter-clockwise under the limit predicate.
func (w *bw) ccw(t Triangle) Triangle {
	if w.orient(t.A, t.B, t.C) == Clockwise {
		t.B, t.C = t.C, t.B
	}
	return t
}

// Delaunay computes the Delaunay triangulation of pts using the
// incremental Bowyer-Watson algorithm with ideal ghost vertices. The
// returned triangulation references the input points by index; the
// input slice is copied.
func Delaunay(pts []Point) (*Triangulation, error) {
	if len(pts) < 3 {
		return nil, ErrTooFewPoints
	}
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("%w: index %d is %v", ErrNonFinitePoint, i, p)
		}
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i] == pts[j] {
				return nil, fmt.Errorf("%w: index %d and %d both %v", ErrDuplicatePoint, i, j, pts[i])
			}
		}
	}

	points := make([]Point, len(pts))
	copy(points, pts)
	n := len(points)
	s := math.Sqrt(3) / 2
	w := &bw{
		pts: points,
		// Three ideal directions at 120 degrees (down-left, down-right,
		// up), in counter-clockwise order.
		dirs: [3]Point{{-s, -0.5}, {s, -0.5}, {0, 1}},
		n:    n,
	}

	tris := []Triangle{{n, n + 1, n + 2}} // the all-ideal root triangle

	// Insert points in a deterministic order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := points[order[a]], points[order[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})

	for _, pi := range order {
		p := points[pi]

		// The first triangle containing p seeds the cavity.
		seed := -1
		for ti, t := range tris {
			if w.contains(t, p) {
				seed = ti
				break
			}
		}
		if seed < 0 {
			return nil, fmt.Errorf("geom: Delaunay insertion failed for point %v", p)
		}

		// Grow the cavity by flood fill over edge-adjacent triangles whose
		// circumdisk contains p. Restricting the cavity to the connected
		// component of the seed keeps its boundary a simple polygon even
		// when floating-point noise misclassifies a distant triangle.
		inCavity := make([]bool, len(tris))
		inCavity[seed] = true
		queue := []int{seed}
		for len(queue) > 0 {
			t := tris[queue[0]]
			queue = queue[1:]
			for ni, nt := range tris {
				if !inCavity[ni] && adjacent(t, nt) && w.incircle(nt, p) {
					inCavity[ni] = true
					queue = append(queue, ni)
				}
			}
		}

		// Count the cavity's edges while removing its triangles
		// (descending index swap-delete): the boundary is the edges
		// incident to exactly one cavity triangle.
		edgeCount := make(map[edge]int)
		for ti := len(tris) - 1; ti >= 0; ti-- {
			if !inCavity[ti] {
				continue
			}
			t := tris[ti]
			edgeCount[mkEdge(t.A, t.B)]++
			edgeCount[mkEdge(t.B, t.C)]++
			edgeCount[mkEdge(t.C, t.A)]++
			last := len(tris) - 1
			tris[ti] = tris[last]
			tris = tris[:last]
		}

		// Re-triangulate the cavity around p.
		for e, cnt := range edgeCount {
			if cnt == 1 {
				tris = append(tris, w.ccw(Triangle{e.u, e.v, pi}))
			}
		}
	}

	// Drop ghost triangles.
	out := tris[:0]
	for _, t := range tris {
		if t.A >= n || t.B >= n || t.C >= n {
			continue
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, ErrTooFewPoints // all input points collinear
	}

	final := make([]Triangle, len(out))
	copy(final, out)
	sortTriangles(final)
	return &Triangulation{Points: points, Triangles: final}, nil
}

// triangleContains reports whether p is inside or on triangle (a,b,c).
func triangleContains(a, b, c, p Point) bool {
	if Orient(a, b, c) == Clockwise {
		b, c = c, b
	}
	return Orient(a, b, p) != Clockwise &&
		Orient(b, c, p) != Clockwise &&
		Orient(c, a, p) != Clockwise
}

// sortTriangles canonicalizes triangle order for deterministic output:
// each triangle rotated so its smallest index is first (preserving
// orientation), then sorted lexicographically.
func sortTriangles(tris []Triangle) {
	for i, t := range tris {
		tris[i] = canonical(t)
	}
	sort.Slice(tris, func(i, j int) bool {
		a, b := tris[i], tris[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.C < b.C
	})
}

func canonical(t Triangle) Triangle {
	for t.B < t.A || t.C < t.A {
		t.A, t.B, t.C = t.B, t.C, t.A
	}
	return t
}

// Locate returns the index of the first triangle containing p (inside
// or on its boundary) along with p's barycentric coordinates with
// respect to that triangle. ok is false when p lies outside the
// triangulation's convex hull. The scan is linear: the predictor's 13
// profiled points make 19 triangles (DESIGN.md Section 8).
func (tr *Triangulation) Locate(p Point) (ti int, bc Barycentric, ok bool) {
	for i, t := range tr.Triangles {
		a, b, c := tr.Points[t.A], tr.Points[t.B], tr.Points[t.C]
		if triangleContains(a, b, c, p) {
			return i, BarycentricCoords(a, b, c, p), true
		}
	}
	return -1, Barycentric{}, false
}

// Validate checks the structural invariants of the triangulation:
// vertex indices in range, non-degenerate CCW triangles, and the empty
// circumcircle property (no input point strictly inside any triangle's
// circumcircle). It returns the first violation found.
func (tr *Triangulation) Validate() error {
	n := len(tr.Points)
	for ti, t := range tr.Triangles {
		for _, v := range t.Vertices() {
			if v < 0 || v >= n {
				return fmt.Errorf("triangle %d: vertex index %d out of range [0,%d)", ti, v, n)
			}
		}
		a, b, c := tr.Points[t.A], tr.Points[t.B], tr.Points[t.C]
		if Orient(a, b, c) != CounterClockwise {
			return fmt.Errorf("triangle %d (%v %v %v): not counter-clockwise", ti, a, b, c)
		}
		for pi, p := range tr.Points {
			if pi == t.A || pi == t.B || pi == t.C {
				continue
			}
			if InCircle(a, b, c, p) {
				return fmt.Errorf("triangle %d: point %d %v violates empty-circumcircle property", ti, pi, p)
			}
		}
	}
	return nil
}

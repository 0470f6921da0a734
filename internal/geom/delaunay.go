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

// Delaunay computes the Delaunay triangulation of pts from its
// definition: every counter-clockwise triple of input points whose
// circumcircle holds no other input point. The scan is O(n⁴), sized for
// the predictor's 13 profiled points (DESIGN.md Section 8). A point
// that InCircle's tolerance puts exactly on a circumcircle is settled
// by onCircleInside, so cocircular inputs still give one triangulation.
// The returned triangulation references the input points by index; the
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
	var tris []Triangle
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			for k := j + 1; k < len(points); k++ {
				t := Triangle{i, j, k}
				switch Orient(points[i], points[j], points[k]) {
				case Collinear:
					continue
				case Clockwise:
					t.B, t.C = t.C, t.B
				}
				if emptyCircumcircle(points, t) {
					tris = append(tris, t)
				}
			}
		}
	}
	if len(tris) == 0 {
		return nil, ErrTooFewPoints // all input points collinear
	}
	sortTriangles(tris)
	return &Triangulation{Points: points, Triangles: tris}, nil
}

// emptyCircumcircle reports whether no point of pts other than t's
// vertices lies inside the circumcircle of the CCW triangle t.
func emptyCircumcircle(pts []Point, t Triangle) bool {
	a, b, c := pts[t.A], pts[t.B], pts[t.C]
	for l, p := range pts {
		if l == t.A || l == t.B || l == t.C {
			continue
		}
		switch inCircleSign(a, b, c, p) {
		case 1:
			return false
		case 0:
			if onCircleInside(pts, t, l) {
				return false
			}
		}
	}
	return true
}

// onCircleInside breaks the tie of point l lying on the circumcircle of
// the CCW triangle t by symbolic perturbation on the point index: a
// lower index sits lower on the lifting paraboloid, so the smallest of
// the four indices decides. If it is l, l dips inside. If it is a
// vertex v of t, lowering v tilts the circle's plane up beyond the edge
// opposite v, so l is inside when it lies strictly on that far side.
func onCircleInside(pts []Point, t Triangle, l int) bool {
	v := min(t.A, t.B, t.C)
	if l < v {
		return true
	}
	// The edge opposite v, directed so that v is on its left.
	e0, e1 := t.B, t.C
	switch v {
	case t.B:
		e0, e1 = t.C, t.A
	case t.C:
		e0, e1 = t.A, t.B
	}
	return Orient(pts[e0], pts[e1], pts[l]) == Clockwise
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

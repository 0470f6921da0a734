// Package geom provides the 2D computational-geometry substrate used by
// the performance-prediction model of Malakar et al. (SC 2012): robust
// orientation and in-circle predicates, convex hulls, Delaunay
// triangulations and barycentric interpolation.
//
// Points live in the (aspect-ratio, total-points) feature plane of the
// paper's Section 3.1, but the package is fully general.
package geom

import (
	"fmt"
	"math"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Orientation classifies the turn formed by three points.
type Orientation int

// Turn directions returned by Orient.
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
)

// orientEps bounds the relative rounding error of the 2x2 determinant
// used by Orient. Determinants smaller than the scaled epsilon are
// treated as zero so that nearly-collinear inputs are classified
// deterministically.
const orientEps = 1e-12

// Orient returns the orientation of the triangle (a, b, c):
// CounterClockwise if the points make a left turn, Clockwise for a
// right turn, and Collinear if the signed area is (numerically) zero.
func Orient(a, b, c Point) Orientation {
	det := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	// Scale tolerance by the magnitude of the inputs so the predicate is
	// stable for both tiny and huge coordinates.
	scale := math.Abs((b.X-a.X)*(c.Y-a.Y)) + math.Abs((b.Y-a.Y)*(c.X-a.X))
	if math.Abs(det) <= orientEps*scale {
		return Collinear
	}
	if det > 0 {
		return CounterClockwise
	}
	return Clockwise
}

// InCircle reports whether point d lies strictly inside the
// circumcircle of the counter-clockwise triangle (a, b, c).
func InCircle(a, b, c, d Point) bool { return inCircleSign(a, b, c, d) > 0 }

// inCircleSign returns 1 when d lies strictly inside the circumcircle
// of the counter-clockwise triangle (a, b, c), -1 when it lies strictly
// outside, and 0 when it is on, or numerically on, the circle.
func inCircleSign(a, b, c, d Point) int {
	// Translate so d is the origin; the predicate is the sign of a 3x3
	// determinant.
	ax, ay := a.X-d.X, a.Y-d.Y
	bx, by := b.X-d.X, b.Y-d.Y
	cx, cy := c.X-d.X, c.Y-d.Y

	al := ax*ax + ay*ay
	bl := bx*bx + by*by
	cl := cx*cx + cy*cy

	det := al*(bx*cy-by*cx) - bl*(ax*cy-ay*cx) + cl*(ax*by-ay*bx)
	scale := math.Abs(al*(bx*cy)) + math.Abs(al*(by*cx)) +
		math.Abs(bl*(ax*cy)) + math.Abs(bl*(ay*cx)) +
		math.Abs(cl*(ax*by)) + math.Abs(cl*(ay*bx))
	switch {
	case math.Abs(det) <= orientEps*scale:
		return 0
	case det > 0:
		return 1
	default:
		return -1
	}
}

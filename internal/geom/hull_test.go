package geom

import (
	"math"
	"sort"
)

// The convex-hull and area helpers below have no production caller:
// they are the independent oracles the Delaunay, point-location and
// orientation tests check the triangulation against.

// ConvexHull returns the convex hull of pts in counter-clockwise order
// using Andrew's monotone-chain algorithm. Collinear points on hull
// edges are dropped. The input slice is not modified. Degenerate inputs
// (fewer than three non-collinear points) return the distinct extreme
// points in sorted order.
func ConvexHull(pts []Point) []Point {
	n := len(pts)
	if n == 0 {
		return nil
	}
	sorted := make([]Point, n)
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		out := make([]Point, len(uniq))
		copy(out, uniq)
		return out
	}

	hull := make([]Point, 0, 2*len(uniq))
	// Lower hull.
	for _, p := range uniq {
		for len(hull) >= 2 && Orient(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(uniq) - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && Orient(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1] // last point equals the first
}

// InConvexPolygon reports whether p lies inside or on the boundary of
// the convex polygon poly given in counter-clockwise order.
func InConvexPolygon(p Point, poly []Point) bool {
	n := len(poly)
	switch n {
	case 0:
		return false
	case 1:
		return p == poly[0]
	case 2:
		// On-segment test.
		if Orient(poly[0], poly[1], p) != Collinear {
			return false
		}
		bb := Bounds(poly)
		return bb.Contains(p)
	}
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		if Orient(a, b, p) == Clockwise {
			return false
		}
	}
	return true
}

// PolygonArea returns the (positive) area of a simple polygon.
func PolygonArea(poly []Point) float64 {
	n := len(poly)
	if n < 3 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += poly[i].X*poly[j].Y - poly[i].Y*poly[j].X
	}
	if sum < 0 {
		sum = -sum
	}
	return sum / 2
}

// Hull returns the convex hull of the triangulated points in
// counter-clockwise order.
func (tr *Triangulation) Hull() []Point { return ConvexHull(tr.Points) }

// SignedArea returns the signed area of triangle (a, b, c). The result
// is positive when the vertices are in counter-clockwise order.
func SignedArea(a, b, c Point) float64 {
	return 0.5 * ((b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X))
}

// Inside reports whether the coordinates describe a point inside or on
// the triangle, within tolerance eps.
func (bc Barycentric) Inside(eps float64) bool {
	return bc.L1 >= -eps && bc.L2 >= -eps && bc.L3 >= -eps
}

// BBox is an axis-aligned bounding box.
type BBox struct {
	Min, Max Point
}

// Bounds returns the bounding box of pts. It panics if pts is empty.
func Bounds(pts []Point) BBox {
	if len(pts) == 0 {
		panic("geom: Bounds of empty point set")
	}
	bb := BBox{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		bb.Min.X = math.Min(bb.Min.X, p.X)
		bb.Min.Y = math.Min(bb.Min.Y, p.Y)
		bb.Max.X = math.Max(bb.Max.X, p.X)
		bb.Max.Y = math.Max(bb.Max.Y, p.Y)
	}
	return bb
}

// Contains reports whether p lies inside or on the boundary of b.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

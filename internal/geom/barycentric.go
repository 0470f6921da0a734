package geom

import "math"

// Barycentric holds the barycentric coordinates (λ1, λ2, λ3) of a point
// with respect to a triangle, as used by Eqs. (1)-(4) of the paper.
// For a point inside the triangle all three are in [0, 1] and they sum
// to 1.
//
// Note: Eq. (3) of the published text reads "λ3 = λ1 − λ2", a typo for
// the standard identity λ3 = 1 − λ1 − λ2, which is what both the
// original barycentric-coordinate definition (the paper cites Coxeter)
// and a correct interpolation require; we implement the latter.
type Barycentric struct {
	L1, L2, L3 float64
}

// BarycentricCoords returns the barycentric coordinates of p with
// respect to the triangle (a, b, c), following Eqs. (1)-(2) of the
// paper with λ3 = 1 − λ1 − λ2.
func BarycentricCoords(a, b, c, p Point) Barycentric {
	den := (b.Y-c.Y)*(a.X-c.X) + (c.X-b.X)*(a.Y-c.Y)
	if den == 0 {
		// Degenerate triangle: fall back to nearest-vertex weights.
		d1, d2, d3 := p.Dist2(a), p.Dist2(b), p.Dist2(c)
		switch {
		case d1 <= d2 && d1 <= d3:
			return Barycentric{1, 0, 0}
		case d2 <= d3:
			return Barycentric{0, 1, 0}
		default:
			return Barycentric{0, 0, 1}
		}
	}
	l1 := ((b.Y-c.Y)*(p.X-c.X) + (c.X-b.X)*(p.Y-c.Y)) / den
	l2 := ((c.Y-a.Y)*(p.X-c.X) + (a.X-c.X)*(p.Y-c.Y)) / den
	return Barycentric{L1: l1, L2: l2, L3: 1 - l1 - l2}
}

// Interpolate linearly combines the three vertex values with the
// barycentric weights, implementing Eq. (4) of the paper:
//
//	T_D = λ1·T1 + λ2·T2 + λ3·T3.
func (bc Barycentric) Interpolate(v1, v2, v3 float64) float64 {
	return bc.L1*v1 + bc.L2*v2 + bc.L3*v3
}

// Clamp projects slightly-outside coordinates back onto the triangle by
// clamping negatives to zero and renormalizing. Useful when a query
// point sits on an edge shared with floating-point noise.
func (bc Barycentric) Clamp() Barycentric {
	l1 := math.Max(bc.L1, 0)
	l2 := math.Max(bc.L2, 0)
	l3 := math.Max(bc.L3, 0)
	s := l1 + l2 + l3
	if s == 0 {
		return Barycentric{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	return Barycentric{l1 / s, l2 / s, l3 / s}
}

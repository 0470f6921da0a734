package geom

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestDelaunaySquare(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Triangles) != 2 {
		t.Fatalf("square should triangulate into 2 triangles, got %d", len(tr.Triangles))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDelaunaySinglePointInside(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4), Pt(2, 2)}
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Triangles) != 4 {
		t.Fatalf("want 4 triangles around center point, got %d", len(tr.Triangles))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDelaunayErrors(t *testing.T) {
	if _, err := Delaunay([]Point{Pt(0, 0), Pt(1, 1)}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("2 points: err = %v, want ErrTooFewPoints", err)
	}
	if _, err := Delaunay([]Point{Pt(0, 0), Pt(1, 1), Pt(0, 0)}); !errors.Is(err, ErrDuplicatePoint) {
		t.Errorf("duplicates: err = %v, want ErrDuplicatePoint", err)
	}
	if _, err := Delaunay([]Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)}); err == nil {
		t.Error("all-collinear input should fail")
	}
}

// A NaN or infinite coordinate is refused: it used to be dropped
// silently, leaving a triangulation of the remaining points.
func TestDelaunayRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []Point{
		Pt(nan, 0.5), Pt(0.5, nan), Pt(inf, 0.5), Pt(0.5, -inf), Pt(nan, inf),
	} {
		pts := []Point{Pt(0, 0), Pt(1, 0), Pt(0, 1), bad}
		if tr, err := Delaunay(pts); !errors.Is(err, ErrNonFinitePoint) {
			t.Errorf("Delaunay with %v: (%v, %v), want ErrNonFinitePoint", bad, tr, err)
		}
	}
}

// Euler-style count: a Delaunay triangulation of n points with h hull
// vertices (no interior collinear degeneracies) has 2n - h - 2 triangles.
func TestDelaunayTriangleCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sets [][]Point
	for trial := 0; trial < 20; trial++ {
		sets = append(sets, randomPoints(rng, 4+rng.Intn(40)))
	}
	for trial, pts := range append(sets, lattices()...) {
		tr, err := Delaunay(pts)
		if err != nil {
			t.Fatalf("set %d: %v", trial, err)
		}
		// h counts every point on the hull boundary, including points
		// collinear on hull edges (which the corner-only hull drops).
		hull := ConvexHull(pts)
		n, h := len(pts), 0
		for _, p := range pts {
			onBoundary := false
			for i := range hull {
				a, b := hull[i], hull[(i+1)%len(hull)]
				if Orient(a, b, p) == Collinear &&
					p.X >= math.Min(a.X, b.X) && p.X <= math.Max(a.X, b.X) &&
					p.Y >= math.Min(a.Y, b.Y) && p.Y <= math.Max(a.Y, b.Y) {
					onBoundary = true
					break
				}
			}
			if onBoundary {
				h++
			}
		}
		want := 2*n - h - 2
		if len(tr.Triangles) != want {
			t.Errorf("set %d: n=%d h=%d: got %d triangles, want %d",
				trial, n, h, len(tr.Triangles), want)
		}
	}
}

func TestDelaunayEmptyCircumcircleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sets [][]Point
	for trial := 0; trial < 15; trial++ {
		sets = append(sets, randomPoints(rng, 5+rng.Intn(45)))
	}
	for trial, pts := range append(sets, lattices()...) {
		tr, err := Delaunay(pts)
		if err != nil {
			t.Fatalf("set %d: %v", trial, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("set %d: %v", trial, err)
		}
	}
}

// Total triangulated area must equal the convex hull area: the
// triangulation covers the hull exactly, with no overlaps or gaps.
func TestDelaunayAreaCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var sets [][]Point
	for trial := 0; trial < 15; trial++ {
		sets = append(sets, randomPoints(rng, 5+rng.Intn(30)))
	}
	for trial, pts := range append(sets, lattices()...) {
		tr, err := Delaunay(pts)
		if err != nil {
			t.Fatalf("set %d: %v", trial, err)
		}
		if sum, hullArea := triangulatedArea(tr), PolygonArea(ConvexHull(pts)); math.Abs(sum-hullArea) > 1e-6*hullArea {
			t.Errorf("set %d: triangulated area %v != hull area %v", trial, sum, hullArea)
		}
	}
}

// Regular n-gons put every input point on one circle, so only the index
// tie rule picks the triangles: n-2 of them, or the n-triangle fan when
// the centre is added. Centre, radius, rotation and input order are
// random.
func TestDelaunayCocircularPolygons(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 4; n <= 24; n++ {
		for _, withCentre := range []bool{false, true} {
			centre := Pt(rng.Float64()*20-10, rng.Float64()*20-10)
			r, rot := 0.5+rng.Float64()*5, rng.Float64()*2*math.Pi
			pts := make([]Point, 0, n+1)
			for i := 0; i < n; i++ {
				a := rot + 2*math.Pi*float64(i)/float64(n)
				pts = append(pts, Pt(centre.X+r*math.Cos(a), centre.Y+r*math.Sin(a)))
			}
			want := n - 2
			if withCentre {
				pts = append(pts, centre)
				want = n
			}
			rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			tr, err := Delaunay(pts)
			if err != nil {
				t.Fatalf("n=%d centre=%v: %v", n, withCentre, err)
			}
			if got := len(tr.Triangles); got != want {
				t.Errorf("n=%d centre=%v: %d triangles, want %d", n, withCentre, got, want)
			}
			if sum, hullArea := triangulatedArea(tr), PolygonArea(ConvexHull(pts)); math.Abs(sum-hullArea) > 1e-9*hullArea {
				t.Errorf("n=%d centre=%v: triangulated area %v != hull area %v", n, withCentre, sum, hullArea)
			}
			if err := tr.Validate(); err != nil {
				t.Errorf("n=%d centre=%v: %v", n, withCentre, err)
			}
		}
	}
}

// Without ties the Delaunay triangulation is unique, so permuting the
// input permutes the triangle set and nothing else.
func TestDelaunayPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(30)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64(), rng.Float64())
		}
		perm := rng.Perm(n)
		permuted := make([]Point, n)
		for i, p := range perm {
			permuted[i] = pts[p]
		}
		tr, err := Delaunay(pts)
		if err != nil {
			t.Fatal(err)
		}
		ptr, err := Delaunay(permuted)
		if err != nil {
			t.Fatal(err)
		}
		back := make([]Triangle, len(ptr.Triangles))
		for i, tri := range ptr.Triangles {
			back[i] = Triangle{perm[tri.A], perm[tri.B], perm[tri.C]}
		}
		sortTriangles(back)
		if !reflect.DeepEqual(back, tr.Triangles) {
			t.Errorf("trial %d (n=%d): permuted input gives %v, want %v", trial, n, back, tr.Triangles)
		}
	}
}

func TestLocateInsideAndOutside(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10), Pt(5, 5)}
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	ti, bc, ok := tr.Locate(Pt(5, 2))
	if !ok {
		t.Fatal("interior point not located")
	}
	if ti < 0 || ti >= len(tr.Triangles) {
		t.Fatalf("triangle index %d out of range", ti)
	}
	if s := bc.L1 + bc.L2 + bc.L3; math.Abs(s-1) > 1e-12 {
		t.Errorf("barycentric sum = %v", s)
	}
	if !bc.Inside(1e-9) {
		t.Errorf("barycentric %v should be inside", bc)
	}
	if _, _, ok := tr.Locate(Pt(20, 20)); ok {
		t.Error("outside point should not be located")
	}
}

func TestLocateEveryVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 25)
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.Points {
		_, bc, ok := tr.Locate(p)
		if !ok {
			t.Fatalf("vertex %d %v not located in own triangulation", i, p)
		}
		if !bc.Inside(1e-9) {
			t.Errorf("vertex %d: coords %v not inside", i, bc)
		}
	}
}

func TestLocateRandomInteriorPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 30)
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	hull := ConvexHull(pts)
	located, tried := 0, 0
	for i := 0; i < 200; i++ {
		q := Pt(rng.Float64()*100, rng.Float64()*100)
		inHull := InConvexPolygon(q, hull)
		_, _, ok := tr.Locate(q)
		// Boundary-of-hull points can disagree by rounding; only check
		// points clearly inside.
		if inHull {
			tried++
			if ok {
				located++
			}
		} else if ok {
			t.Errorf("point %v outside hull but located", q)
		}
	}
	if tried > 0 && located < tried {
		t.Errorf("located %d/%d interior points", located, tried)
	}
}

func TestTriangulationHull(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 20)
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tr.Hull()), len(ConvexHull(pts)); got != want {
		t.Errorf("Hull size %d, want %d", got, want)
	}
}

func TestBarycentricIdentities(t *testing.T) {
	a, b, c := Pt(0, 0), Pt(4, 0), Pt(0, 4)
	cases := []struct {
		p    Point
		want Barycentric
	}{
		{a, Barycentric{1, 0, 0}},
		{b, Barycentric{0, 1, 0}},
		{c, Barycentric{0, 0, 1}},
		{Pt(4.0/3, 4.0/3), Barycentric{1.0 / 3, 1.0 / 3, 1.0 / 3}},
	}
	for _, tc := range cases {
		got := BarycentricCoords(a, b, c, tc.p)
		if math.Abs(got.L1-tc.want.L1) > 1e-12 ||
			math.Abs(got.L2-tc.want.L2) > 1e-12 ||
			math.Abs(got.L3-tc.want.L3) > 1e-12 {
			t.Errorf("BarycentricCoords(%v) = %+v, want %+v", tc.p, got, tc.want)
		}
	}
}

// Barycentric interpolation must reproduce any affine function exactly.
func TestBarycentricReproducesAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(p Point) float64 { return 3*p.X - 2*p.Y + 7 }
	for trial := 0; trial < 100; trial++ {
		a := Pt(rng.Float64()*10, rng.Float64()*10)
		b := Pt(rng.Float64()*10, rng.Float64()*10)
		c := Pt(rng.Float64()*10, rng.Float64()*10)
		if Orient(a, b, c) == Collinear {
			continue
		}
		// Random point as a convex combination.
		w1, w2 := rng.Float64(), rng.Float64()
		if w1+w2 > 1 {
			w1, w2 = 1-w1, 1-w2
		}
		p := a.Scale(w1).Add(b.Scale(w2)).Add(c.Scale(1 - w1 - w2))
		bc := BarycentricCoords(a, b, c, p)
		got := bc.Interpolate(f(a), f(b), f(c))
		if math.Abs(got-f(p)) > 1e-8 {
			t.Fatalf("trial %d: interpolated %v, want %v", trial, got, f(p))
		}
	}
}

func TestBarycentricDegenerateTriangle(t *testing.T) {
	// All three vertices collinear: falls back to nearest vertex.
	bc := BarycentricCoords(Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(0.1, 0.1))
	if bc != (Barycentric{1, 0, 0}) {
		t.Errorf("nearest-vertex fallback = %+v", bc)
	}
	bc = BarycentricCoords(Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(1.9, 1.9))
	if bc != (Barycentric{0, 0, 1}) {
		t.Errorf("nearest-vertex fallback = %+v", bc)
	}
}

func TestBarycentricClamp(t *testing.T) {
	bc := Barycentric{-0.1, 0.6, 0.5}.Clamp()
	if bc.L1 != 0 {
		t.Errorf("clamped L1 = %v", bc.L1)
	}
	if s := bc.L1 + bc.L2 + bc.L3; math.Abs(s-1) > 1e-12 {
		t.Errorf("clamped sum = %v", s)
	}
	// Pathological all-negative input.
	bc = Barycentric{-1, -1, -1}.Clamp()
	if math.Abs(bc.L1-1.0/3) > 1e-12 {
		t.Errorf("all-negative clamp = %+v", bc)
	}
}

func TestTriangleCanonical(t *testing.T) {
	tr := canonical(Triangle{5, 1, 3})
	if tr != (Triangle{1, 3, 5}) {
		t.Errorf("canonical = %+v", tr)
	}
	// Orientation (cyclic order) is preserved.
	tr = canonical(Triangle{3, 5, 1})
	if tr != (Triangle{1, 3, 5}) {
		t.Errorf("canonical = %+v", tr)
	}
}

func randomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, 0, n)
	seen := make(map[Point]bool)
	for len(pts) < n {
		p := Pt(math.Round(rng.Float64()*10000)/100, math.Round(rng.Float64()*10000)/100)
		if seen[p] {
			continue
		}
		seen[p] = true
		pts = append(pts, p)
	}
	return pts
}

// lattices returns the 64 regular nx×ny lattices, 2 ≤ nx, ny ≤ 9, with
// spacing 0.5 × 0.25, each in a seeded shuffled order. Every lattice
// cell is cocircular, so the index tie rule alone picks its diagonal.
func lattices() [][]Point {
	rng := rand.New(rand.NewSource(37))
	var sets [][]Point
	for nx := 2; nx <= 9; nx++ {
		for ny := 2; ny <= 9; ny++ {
			lattice := make([]Point, 0, nx*ny)
			for i := 0; i < nx; i++ {
				for j := 0; j < ny; j++ {
					lattice = append(lattice, Pt(float64(i)*0.5, float64(j)*0.25))
				}
			}
			rng.Shuffle(len(lattice), func(i, j int) { lattice[i], lattice[j] = lattice[j], lattice[i] })
			sets = append(sets, lattice)
		}
	}
	return sets
}

// triangulatedArea sums the areas of tr's triangles.
func triangulatedArea(tr *Triangulation) float64 {
	var sum float64
	for _, tri := range tr.Triangles {
		sum += math.Abs(SignedArea(tr.Points[tri.A], tr.Points[tri.B], tr.Points[tri.C]))
	}
	return sum
}

// BenchmarkDelaunay13 triangulates what the predictor does: the 13
// profiled basis shapes (predict.DefaultBasis) in the (aspect-ratio,
// points/1e5) plane.
func BenchmarkDelaunay13(b *testing.B) {
	shapes := [][2]float64{
		{77, 155}, {187, 375}, {304, 608},
		{108, 108}, {265, 265}, {430, 430},
		{132, 88}, {324, 216}, {527, 351},
		{173, 231}, {224, 179}, {300, 400}, {387, 310},
	}
	pts := make([]Point, len(shapes))
	for i, s := range shapes {
		pts[i] = Pt(s[0]/s[1], s[0]*s[1]/1e5)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Delaunay(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 100)
	tr, err := Delaunay(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Locate(Pt(50, 50))
	}
}

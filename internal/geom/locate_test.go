package geom

import (
	"math/rand"
	"testing"
)

// randomTriangulation builds a Delaunay triangulation of n random
// points in the unit square.
func randomTriangulation(t *testing.T, rng *rand.Rand, n int) *Triangulation {
	t.Helper()
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64(), rng.Float64())
	}
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// locateByScan is the pre-PR-4 reference: first triangle (in slice
// order) containing p.
func locateByScan(tr *Triangulation, p Point) (int, bool) {
	for i, tri := range tr.Triangles {
		a, b, c := tr.Points[tri.A], tr.Points[tri.B], tr.Points[tri.C]
		if triangleContains(a, b, c, p) {
			return i, true
		}
	}
	return -1, false
}

// TestLocateOutsideHull is the regression test for out-of-hull
// queries: the orientation walk exits through a hull edge and must
// still report "not found", exactly like the scan, for points beyond
// every side of the hull.
func TestLocateOutsideHull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTriangulation(t, rng, 60)
	outside := []Point{
		Pt(-5, 0.5), Pt(5, 0.5), Pt(0.5, -5), Pt(0.5, 5),
		Pt(-3, -3), Pt(3, 3), Pt(-0.001, -0.001), Pt(1.5, 0.5),
	}
	for _, p := range outside {
		ti, _, ok := tr.Locate(p)
		if ok {
			t.Errorf("Locate(%v) = triangle %d, want not found (point is outside the hull)", p, ti)
		}
		// The walk must not poison the remembered triangle: an interior
		// query right after an out-of-hull miss still succeeds.
		q := tr.Points[tr.Triangles[0].A].
			Add(tr.Points[tr.Triangles[0].B]).
			Add(tr.Points[tr.Triangles[0].C]).Scale(1.0 / 3.0)
		if _, _, ok := tr.Locate(q); !ok {
			t.Fatalf("interior Locate(%v) failed after out-of-hull query %v", q, p)
		}
	}
}

// TestLocateMatchesScan is the walk-vs-scan agreement property test:
// for random interior, boundary-ish and exterior queries, Locate must
// return exactly what the original linear scan returned.
func TestLocateMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		tr := randomTriangulation(t, rng, 20+trial*30)
		for q := 0; q < 400; q++ {
			// Mix of in-square points and points well outside it.
			p := Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
			if q%7 == 0 {
				// Exact vertex hits exercise the boundary fallback.
				p = tr.Points[rng.Intn(len(tr.Points))]
			}
			wantTi, wantOK := locateByScan(tr, p)
			gotTi, bc, gotOK := tr.Locate(p)
			if gotOK != wantOK || gotTi != wantTi {
				t.Fatalf("trial %d: Locate(%v) = (%d, %v), scan = (%d, %v)",
					trial, p, gotTi, gotOK, wantTi, wantOK)
			}
			if gotOK {
				tri := tr.Triangles[gotTi]
				a, b, c := tr.Points[tri.A], tr.Points[tri.B], tr.Points[tri.C]
				want := BarycentricCoords(a, b, c, p)
				if bc != want {
					t.Fatalf("trial %d: Locate(%v) barycentric %v, want %v", trial, p, bc, want)
				}
			}
		}
	}
}

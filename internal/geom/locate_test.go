package geom

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
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

// TestLocateOutsideHull checks out-of-hull queries: points beyond
// every side of the hull report "not found", and an interior query
// after each of them is still located.
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
		q := tr.Points[tr.Triangles[0].A].
			Add(tr.Points[tr.Triangles[0].B]).
			Add(tr.Points[tr.Triangles[0].C]).Scale(1.0 / 3.0)
		if _, _, ok := tr.Locate(q); !ok {
			t.Fatalf("interior Locate(%v) failed after out-of-hull query %v", q, p)
		}
	}
}

// TestDelaunayLocateDigest pins the triangulations and point locations
// of many point sets to one SHA-256: seeded random sets of every size
// from 3 to 64 (uniform, and rounded to a 0.01 lattice, so collinear
// and cocircular quadruples occur), and per set 50 queries on or near
// the triangles (vertices, edge midpoints, centroids, random points in
// the bounding box) and 50 outside the bounding box. The digest covers
// every triangle's vertex indices and, per query, Locate's triangle
// index, the bits of its barycentric coordinates and ok. It was
// recorded on the incremental Bowyer-Watson triangulator, before the
// empty-circumcircle scan replaced it. Regular lattices are not
// pinned: every lattice cell is cocircular, so their Delaunay
// triangulation is not unique (the property tests cover them).
func TestDelaunayLocateDigest(t *testing.T) {
	const want = "11ef0fc6a82fca6dfa4e430cf77cff9b2d899926468476d1016e6af3aa7019dd"
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	pin := func(rng *rand.Rand, pts []Point) {
		put(uint64(len(pts)))
		tr, err := Delaunay(pts)
		if err != nil {
			io.WriteString(h, err.Error())
			return
		}
		put(uint64(len(tr.Triangles)))
		for _, tri := range tr.Triangles {
			put(uint64(tri.A))
			put(uint64(tri.B))
			put(uint64(tri.C))
		}
		minX, maxX, minY, maxY := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
		w, ht := maxX-minX, maxY-minY
		queries := make([]Point, 0, 100)
		for len(queries) < 50 {
			tri := tr.Triangles[rng.Intn(len(tr.Triangles))]
			a, b, c := tr.Points[tri.A], tr.Points[tri.B], tr.Points[tri.C]
			switch len(queries) % 4 {
			case 0:
				queries = append(queries, a)
			case 1:
				queries = append(queries, a.Add(b).Scale(0.5))
			case 2:
				queries = append(queries, a.Add(b).Add(c).Scale(1.0/3))
			default:
				queries = append(queries, Pt(minX+rng.Float64()*w, minY+rng.Float64()*ht))
			}
		}
		for len(queries) < 100 {
			// Beyond a random side of the bounding box, up to one box
			// size away.
			d := 1e-9 + rng.Float64()
			x, y := minX+rng.Float64()*w, minY+rng.Float64()*ht
			switch rng.Intn(4) {
			case 0:
				x = minX - d*w
			case 1:
				x = maxX + d*w
			case 2:
				y = minY - d*ht
			default:
				y = maxY + d*ht
			}
			queries = append(queries, Pt(x, y))
		}
		for _, q := range queries {
			ti, bc, ok := tr.Locate(q)
			put(uint64(int64(ti)))
			put(math.Float64bits(bc.L1))
			put(math.Float64bits(bc.L2))
			put(math.Float64bits(bc.L3))
			if ok {
				put(1)
			} else {
				put(0)
			}
		}
	}
	rng := rand.New(rand.NewSource(36))
	for n := 3; n <= 64; n++ {
		uniform := make([]Point, n)
		for i := range uniform {
			uniform[i] = Pt(rng.Float64(), rng.Float64())
		}
		pin(rng, uniform)
		if n%2 == 0 {
			pin(rng, randomPoints(rng, n))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("triangulations and locations hash to %s, want %s", got, want)
	}
}

package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOrientBasic(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if got := Orient(a, b, Pt(0, 1)); got != CounterClockwise {
		t.Errorf("left turn: got %v, want CounterClockwise", got)
	}
	if got := Orient(a, b, Pt(0, -1)); got != Clockwise {
		t.Errorf("right turn: got %v, want Clockwise", got)
	}
	if got := Orient(a, b, Pt(2, 0)); got != Collinear {
		t.Errorf("collinear: got %v, want Collinear", got)
	}
}

func TestOrientAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		return Orient(a, b, c) == -Orient(a, c, b)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestOrientCyclicInvariance(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		o := Orient(a, b, c)
		return o == Orient(b, c, a) && o == Orient(c, a, b)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestSignedAreaMatchesOrient(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		area := SignedArea(a, b, c)
		switch Orient(a, b, c) {
		case CounterClockwise:
			return area > 0
		case Clockwise:
			return area < 0
		default:
			return true // near-zero area tolerated
		}
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPointOps(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, 2)
	if got := p.Add(q); got != Pt(4, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := Pt(0, 0).Dist2(p); got != 25 {
		t.Errorf("Dist2 = %v", got)
	}
}

func TestInCircleUnitCircle(t *testing.T) {
	// CCW triangle inscribed in the unit circle centered at origin.
	a := Pt(1, 0)
	b := Pt(-0.5, math.Sqrt(3)/2)
	c := Pt(-0.5, -math.Sqrt(3)/2)
	if !InCircle(a, b, c, Pt(0, 0)) {
		t.Error("origin should be inside the unit circumcircle")
	}
	if InCircle(a, b, c, Pt(2, 0)) {
		t.Error("(2,0) should be outside the unit circumcircle")
	}
	if InCircle(a, b, c, Pt(0, 1)) {
		t.Error("point on the circle should not be strictly inside")
	}
}

func TestBounds(t *testing.T) {
	bb := Bounds([]Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)})
	if bb.Min != Pt(-2, -1) || bb.Max != Pt(4, 5) {
		t.Errorf("Bounds = %+v", bb)
	}
	if !bb.Contains(Pt(0, 0)) || bb.Contains(Pt(10, 0)) {
		t.Error("Contains wrong")
	}
}

func TestBoundsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty point set")
		}
	}()
	Bounds(nil)
}

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1), Pt(0.5, 0.5), Pt(0.25, 0.75)}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d, want 4: %v", len(hull), hull)
	}
	area := PolygonArea(hull)
	if math.Abs(area-1) > 1e-12 {
		t.Errorf("hull area = %v, want 1", area)
	}
}

func TestConvexHullCollinear(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)}
	hull := ConvexHull(pts)
	if len(hull) != 2 {
		t.Fatalf("collinear hull size = %d, want 2: %v", len(hull), hull)
	}
}

func TestConvexHullSmall(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Error("empty input should return nil")
	}
	if h := ConvexHull([]Point{Pt(1, 2)}); len(h) != 1 {
		t.Errorf("single point hull = %v", h)
	}
	if h := ConvexHull([]Point{Pt(1, 2), Pt(1, 2)}); len(h) != 1 {
		t.Errorf("duplicate point hull = %v", h)
	}
}

func TestConvexHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			continue
		}
		for _, p := range pts {
			if !InConvexPolygon(p, hull) {
				t.Fatalf("trial %d: point %v outside its own hull %v", trial, p, hull)
			}
		}
		// Hull must be convex: every consecutive triple turns left or is straight.
		for i := range hull {
			a, b, c := hull[i], hull[(i+1)%len(hull)], hull[(i+2)%len(hull)]
			if Orient(a, b, c) == Clockwise {
				t.Fatalf("trial %d: hull not convex at %v %v %v", trial, a, b, c)
			}
		}
	}
}

func TestInConvexPolygonEdgeCases(t *testing.T) {
	if InConvexPolygon(Pt(0, 0), nil) {
		t.Error("empty polygon contains nothing")
	}
	if !InConvexPolygon(Pt(1, 1), []Point{Pt(1, 1)}) {
		t.Error("single point polygon should contain itself")
	}
	seg := []Point{Pt(0, 0), Pt(2, 2)}
	if !InConvexPolygon(Pt(1, 1), seg) {
		t.Error("segment midpoint")
	}
	if InConvexPolygon(Pt(1, 0), seg) {
		t.Error("off-segment point")
	}
	if InConvexPolygon(Pt(3, 3), seg) {
		t.Error("beyond segment end")
	}
}

func TestPolygonAreaDegenerate(t *testing.T) {
	if PolygonArea([]Point{Pt(0, 0), Pt(1, 1)}) != 0 {
		t.Error("degenerate polygon area should be 0")
	}
	// Clockwise square still yields positive area.
	sq := []Point{Pt(0, 0), Pt(0, 1), Pt(1, 1), Pt(1, 0)}
	if got := PolygonArea(sq); math.Abs(got-1) > 1e-12 {
		t.Errorf("clockwise square area = %v", got)
	}
}

func quickCfg() *quick.Config {
	rng := rand.New(rand.NewSource(7))
	return &quick.Config{
		MaxCount: 300,
		Rand:     rng,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(r.Float64()*200 - 100)
			}
		},
	}
}

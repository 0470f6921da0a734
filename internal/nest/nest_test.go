package nest

import (
	"errors"
	"math"
	"testing"
)

func TestRootAndChildren(t *testing.T) {
	root := Root("pacific", 286, 307)
	if root.Ratio != 1 || root.Points() != 286*307 {
		t.Errorf("root = %+v", root)
	}
	c := root.AddChild("nest1", 415, 445, 3, 10, 20)
	if len(root.Children) != 1 || root.Children[0] != c {
		t.Error("AddChild did not attach")
	}
	if err := root.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestAspectAndPoints(t *testing.T) {
	d := &Domain{NX: 300, NY: 200, Ratio: 1}
	if d.Aspect() != 1.5 {
		t.Errorf("Aspect = %v", d.Aspect())
	}
	if d.Points() != 60000 {
		t.Errorf("Points = %d", d.Points())
	}
}

func TestFootprint(t *testing.T) {
	d := &Domain{NX: 415, NY: 445, Ratio: 3}
	if d.FootprintX() != 139 { // ceil(415/3)
		t.Errorf("FootprintX = %d", d.FootprintX())
	}
	if d.FootprintY() != 149 { // ceil(445/3)
		t.Errorf("FootprintY = %d", d.FootprintY())
	}
}

func TestBoundaryPoints(t *testing.T) {
	d := &Domain{NX: 10, NY: 5}
	if got := d.BoundaryPoints(); got != 2*10+2*5-4 {
		t.Errorf("BoundaryPoints = %d", got)
	}
	tiny := &Domain{NX: 1, NY: 3}
	if got := tiny.BoundaryPoints(); got != 3 {
		t.Errorf("degenerate BoundaryPoints = %d", got)
	}
}

func TestValidateErrors(t *testing.T) {
	tree := func(parent Domain, children ...Domain) *Domain {
		d := &parent
		for i := range children {
			d.Children = append(d.Children, &children[i])
		}
		return d
	}
	for _, c := range []struct {
		name string
		d    *Domain
		want error
	}{
		{"zero size", tree(Domain{Name: "bad", NX: 0, NY: 5, Ratio: 1}), ErrBadSize},
		{"zero ratio", tree(Domain{Name: "r", NX: 5, NY: 5, Ratio: 0}), ErrBadRatio},
		{"footprint past the edge", // footprint 50 from offset 80 > 100
			tree(Domain{Name: "p", NX: 100, NY: 100, Ratio: 1}, Domain{Name: "c", NX: 150, NY: 150, Ratio: 3, OffX: 80}),
			ErrOutOfBound},
		{"child ratio zero",
			tree(Domain{Name: "p", NX: 100, NY: 100, Ratio: 1}, Domain{Name: "c", NX: 90, NY: 90}),
			ErrBadRatio},
		// NX*NY is about 1.8e19, past math.MaxInt: the points would wrap.
		{"points overflow",
			tree(Domain{Name: "p", NX: 8589934592, NY: 2147583649, Ratio: 1},
				Domain{Name: "huge", NX: 8589934592, NY: 2147483649, Ratio: 1}),
			ErrBadSize},
		{"child points overflow", // the parent's 2^62 points fit, the child's 2^64 do not
			tree(Domain{Name: "p", NX: 1 << 31, NY: 1 << 31, Ratio: 1},
				Domain{Name: "huge", NX: 1 << 32, NY: 1 << 32, Ratio: 2}),
			ErrBadSize},
		// NX+Ratio-1 wraps to a footprint of 0.
		{"footprint overflow",
			tree(Domain{Name: "p", NX: 100, NY: 100, Ratio: 1},
				Domain{Name: "c", NX: 10, NY: 10, Ratio: math.MaxInt}),
			ErrBadRatio},
		// OffX plus the footprint wraps negative.
		{"offset overflow",
			tree(Domain{Name: "p", NX: 100, NY: 100, Ratio: 1},
				Domain{Name: "c", NX: 10, NY: 10, Ratio: 1, OffX: math.MaxInt}),
			ErrOutOfBound},
	} {
		if err := c.d.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestValidateNestedChild(t *testing.T) {
	// SE-Asia style two-level nesting: 4.5 km parent, 1.5 km siblings.
	root := Root("seasia", 400, 400)
	mid := root.AddChild("mid", 600, 600, 3, 50, 50)
	mid.AddChild("inner", 300, 300, 3, 10, 10)
	if err := root.Validate(); err != nil {
		t.Fatalf("two-level config rejected: %v", err)
	}
	if root.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", root.Depth())
	}
}

func TestWalkOrder(t *testing.T) {
	root := Root("p", 100, 100)
	root.AddChild("a", 30, 30, 3, 0, 0)
	b := root.AddChild("b", 30, 30, 3, 50, 50)
	b.AddChild("b1", 30, 30, 3, 0, 0)
	var names []string
	root.Walk(func(d *Domain) { names = append(names, d.Name) })
	want := []string{"p", "a", "b", "b1"}
	if len(names) != len(want) {
		t.Fatalf("Walk visited %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Walk order = %v, want %v", names, want)
		}
	}
}

func TestSiblingOverlapAllowed(t *testing.T) {
	root := Root("p", 286, 307)
	root.AddChild("s1", 200, 200, 2, 0, 0)
	root.AddChild("s2", 200, 200, 2, 50, 50)
	if err := root.Validate(); err != nil {
		t.Errorf("overlapping siblings should validate: %v", err)
	}
}

func TestString(t *testing.T) {
	d := &Domain{Name: "n", NX: 3, NY: 4, Ratio: 2}
	if got := d.String(); got != "n[3x4 r=2]" {
		t.Errorf("String = %q", got)
	}
}

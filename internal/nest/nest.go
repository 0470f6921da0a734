// Package nest models WRF-style nested simulation domains (paper
// Sections 1 and 4.1): a coarse parent domain containing finer nested
// child domains ("nests"); nests at the same level are "siblings".
// Each nest runs Ratio sub-steps per parent step, receives its boundary
// conditions by interpolation from the parent at the start and feeds
// its solution back at the end.
package nest

import (
	"errors"
	"fmt"
	"math"
)

// Domain is one simulation domain. NX and NY are its horizontal grid
// dimensions at its own resolution. For a nested domain, Ratio is the
// parent-to-nest resolution ratio r (the nest advances r steps per
// parent step) and (OffX, OffY) is the position of the nest's lower
// left corner in parent grid coordinates.
type Domain struct {
	Name     string
	NX, NY   int
	Ratio    int
	OffX     int
	OffY     int
	Children []*Domain
}

// Errors returned by Validate.
var (
	ErrBadSize    = errors.New("nest: domain dimensions must be positive")
	ErrBadRatio   = errors.New("nest: refinement ratio must be >= 1")
	ErrOutOfBound = errors.New("nest: child footprint outside parent")
)

// Points returns the number of horizontal grid points, the first
// feature of the paper's performance model.
func (d *Domain) Points() int { return d.NX * d.NY }

// Aspect returns nx/ny, the second feature of the paper's performance
// model.
func (d *Domain) Aspect() float64 { return float64(d.NX) / float64(d.NY) }

// FootprintX returns the east-west extent of d in its parent's grid
// coordinates (NX divided by the refinement ratio, rounded up).
func (d *Domain) FootprintX() int { return (d.NX + d.Ratio - 1) / d.Ratio }

// FootprintY returns the north-south extent of d in its parent's grid
// coordinates.
func (d *Domain) FootprintY() int { return (d.NY + d.Ratio - 1) / d.Ratio }

// BoundaryPoints returns the number of lateral boundary points of the
// nest, which sets the cost of interpolating parent data each parent
// step.
func (d *Domain) BoundaryPoints() int {
	if d.NX < 2 || d.NY < 2 {
		return d.Points()
	}
	return 2*d.NX + 2*d.NY - 4
}

// Validate checks the domain tree rooted at d: positive dimensions,
// valid ratios, and every child's footprint inside its parent.
// Sibling overlap is allowed (the paper's regions of interest may
// overlap in principle), but each child must fit. A domain whose
// Points or footprint would overflow an int is rejected too, so no
// caller computes with a wrapped value.
func (d *Domain) Validate() error {
	if d.NX <= 0 || d.NY <= 0 {
		return fmt.Errorf("%w: %s is %dx%d", ErrBadSize, d.Name, d.NX, d.NY)
	}
	if d.Ratio < 1 {
		return fmt.Errorf("%w: %s has ratio %d", ErrBadRatio, d.Name, d.Ratio)
	}
	if err := d.checkOverflow(); err != nil {
		return err
	}
	for _, c := range d.Children {
		if c.Ratio < 1 {
			return fmt.Errorf("%w: %s has ratio %d", ErrBadRatio, c.Name, c.Ratio)
		}
		if err := c.checkOverflow(); err != nil {
			return err
		}
		if c.OffX < 0 || c.OffY < 0 ||
			c.FootprintX() > d.NX-c.OffX || c.FootprintY() > d.NY-c.OffY {
			return fmt.Errorf("%w: %s at (%d,%d) size %dx%d (footprint %dx%d) in %s %dx%d",
				ErrOutOfBound, c.Name, c.OffX, c.OffY, c.NX, c.NY,
				c.FootprintX(), c.FootprintY(), d.Name, d.NX, d.NY)
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// checkOverflow rejects a domain whose Points or footprint would
// overflow an int. Its ratio is at least 1.
func (d *Domain) checkOverflow() error {
	if d.NX > 0 && d.NY > 0 && d.NX > math.MaxInt/d.NY {
		return fmt.Errorf("%w: %s is %dx%d, more grid points than an int holds", ErrBadSize, d.Name, d.NX, d.NY)
	}
	if d.Ratio-1 > math.MaxInt-max(d.NX, d.NY, 0) {
		return fmt.Errorf("%w: %s has ratio %d, too large for its %dx%d footprint", ErrBadRatio, d.Name, d.Ratio, d.NX, d.NY)
	}
	return nil
}

// Depth returns the nesting depth below d: 0 for a leaf domain.
func (d *Domain) Depth() int {
	max := 0
	for _, c := range d.Children {
		if dd := c.Depth() + 1; dd > max {
			max = dd
		}
	}
	return max
}

// Walk visits every domain in the tree in depth-first order, parents
// before children.
func (d *Domain) Walk(fn func(*Domain)) {
	fn(d)
	for _, c := range d.Children {
		c.Walk(fn)
	}
}

// String implements fmt.Stringer.
func (d *Domain) String() string {
	return fmt.Sprintf("%s[%dx%d r=%d]", d.Name, d.NX, d.NY, d.Ratio)
}

// Root constructs a top-level (parent) domain; its ratio is 1.
func Root(name string, nx, ny int) *Domain {
	return &Domain{Name: name, NX: nx, NY: ny, Ratio: 1}
}

// AddChild appends a nested domain to parent and returns it.
func (d *Domain) AddChild(name string, nx, ny, ratio, offX, offY int) *Domain {
	c := &Domain{Name: name, NX: nx, NY: ny, Ratio: ratio, OffX: offX, OffY: offY}
	d.Children = append(d.Children, c)
	return c
}

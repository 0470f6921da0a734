package planserve

import (
	"fmt"
	"math"
	"strings"

	"nestwrf/internal/driver"
	"nestwrf/internal/nest"
)

// cacheKey renders the canonical identity of one planning query. Two
// requests share a cache entry exactly when they agree on the machine's
// full cost model, the rank count, every planning option, and the
// domain-set geometry. Domain names are deliberately absent: renaming a
// typhoon does not change the plan, so geometrically identical requests
// under different names share one cached plan (names are re-attached
// from the request when the response is marshalled). Sibling ORDER is
// preserved — Algorithm 1's bisection output depends on the order the
// weights arrive in, so reordered siblings are a different plan.
func cacheKey(prefix string, opt driver.Options, cfg *nest.Domain) string {
	var b strings.Builder
	b.WriteString(prefix)
	b.WriteString(driver.MachineKey(opt.Machine))
	fmt.Fprintf(&b, "|r=%d|s=%d|a=%d|m=%d|io=%d|oe=%d|nc=%t|",
		opt.Ranks, opt.Strategy, opt.Alloc, opt.MapKind,
		opt.IOMode, opt.OutputEverySteps, opt.NoContention)
	// FixedWeights bypass the predictor and change the allocation, so
	// they are part of the plan identity. HTTP requests never carry
	// them (the segment is absent for the empty slice, keeping server
	// keys unchanged); in-process PlanCache users — the steering
	// controller, ensemble members — may.
	if len(opt.FixedWeights) > 0 {
		b.WriteString("w=")
		for _, w := range opt.FixedWeights {
			fmt.Fprintf(&b, "%x,", math.Float64bits(w))
		}
		b.WriteByte('|')
	}
	writeDomainKey(&b, cfg)
	return b.String()
}

// writeDomainKey appends the name-free geometry of the domain tree in
// depth-first sibling order.
func writeDomainKey(b *strings.Builder, d *nest.Domain) {
	fmt.Fprintf(b, "(%d,%d,%d,%d,%d", d.NX, d.NY, d.Ratio, d.OffX, d.OffY)
	for _, c := range d.Children {
		writeDomainKey(b, c)
	}
	b.WriteByte(')')
}

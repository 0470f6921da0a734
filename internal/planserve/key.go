package planserve

import (
	"strconv"

	"nestwrf/internal/driver"
	"nestwrf/internal/nest"
)

// keyBuf sizes the stack buffer a lookup builds its key in: a Blue Gene
// machine segment (≈ 215 bytes), the options (≈ 50) and about ten
// domains fit, so a lookup allocates nothing for its key. Longer keys
// still work; append moves them to the heap.
const keyBuf = 512

// appendKey appends the canonical identity of one planning query to b.
// Two requests share a cache entry exactly when they agree on the
// machine's full cost model, the rank count, every planning option, and
// the domain-set geometry. Domain names are deliberately absent:
// renaming a typhoon does not change the plan, so geometrically
// identical requests under different names share one cached plan (names
// are re-attached from the request when the response is marshalled).
// Sibling ORDER is preserved — Algorithm 1's bisection output depends on
// the order the weights arrive in, so reordered siblings are a different
// plan. The key is printable; which Options fields it covers, and why
// the others are left out, is pinned by TestKeyCoversEveryField.
func appendKey(b []byte, prefix string, opt driver.Options, cfg *nest.Domain) []byte {
	b = append(b, prefix...)
	b = driver.AppendMachineKey(b, opt.Machine)
	b = appendField(b, "|r=", opt.Ranks)
	b = appendField(b, "|s=", int(opt.Strategy))
	b = appendField(b, "|a=", int(opt.Alloc))
	b = appendField(b, "|m=", int(opt.MapKind))
	b = appendField(b, "|io=", int(opt.IOMode))
	b = appendField(b, "|oe=", opt.OutputEverySteps)
	b = append(b, "|nc="...)
	b = strconv.AppendBool(b, opt.NoContention)
	b = append(b, '|')
	return appendDomainKey(b, cfg)
}

// appendField appends tag and v in decimal.
func appendField(b []byte, tag string, v int) []byte {
	return strconv.AppendInt(append(b, tag...), int64(v), 10)
}

// appendDomainKey appends the name-free geometry of the domain tree in
// depth-first sibling order: "(nx,ny,ratio,offx,offy" then each child,
// then ")".
func appendDomainKey(b []byte, d *nest.Domain) []byte {
	b = appendField(b, "(", d.NX)
	b = appendField(b, ",", d.NY)
	b = appendField(b, ",", d.Ratio)
	b = appendField(b, ",", d.OffX)
	b = appendField(b, ",", d.OffY)
	for _, c := range d.Children {
		b = appendDomainKey(b, c)
	}
	return append(b, ')')
}

package planserve

import (
	"strconv"
	"strings"

	"nestwrf/internal/driver"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
)

// keyBuf sizes the stack buffer a lookup builds its key in: a Blue Gene
// machine segment (≈ 215 bytes), the options (≈ 50) and about ten
// domains fit, so a lookup allocates nothing for its key. Longer keys
// still work; append moves them to the heap.
const keyBuf = 512

// machineKeys maps the name of every machine a request may select —
// the models machine.Parse returns — to its identity key
// (driver.AppendMachineKey), formatted once. Request keys take their
// machine segment from it, and a snapshot load reads a key's machine
// back from it.
var machineKeys = func() map[string]string {
	keys := map[string]string{}
	for _, m := range []machine.Machine{machine.BGL(), machine.BGP()} {
		keys[m.Name] = string(driver.AppendMachineKey(nil, m))
	}
	return keys
}()

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
	return appendDomainKey(appendOptionsKey(b, opt), cfg)
}

// appendRequestKey appends the key appendKey gives the request once its
// domain tree is built, without building it. The machine segment comes
// from machineKeys (a machine missing there is formatted as appendKey
// does, so the bytes never depend on the table), and the root's ratio
// and offsets are written as nest.Root sets them, ignoring the spec's.
func appendRequestKey(b []byte, prefix string, opt driver.Options, spec *DomainSpec) []byte {
	b = append(b, prefix...)
	if mk, ok := machineKeys[opt.Machine.Name]; ok {
		b = append(b, mk...)
	} else {
		b = driver.AppendMachineKey(b, opt.Machine)
	}
	return appendSpecKey(appendOptionsKey(b, opt), spec, 1, 0, 0)
}

// appendOptionsKey appends the planning options after the machine.
func appendOptionsKey(b []byte, opt driver.Options) []byte {
	b = appendField(b, "|r=", opt.Ranks)
	b = appendField(b, "|s=", int(opt.Strategy))
	b = appendField(b, "|a=", int(opt.Alloc))
	b = appendField(b, "|m=", int(opt.MapKind))
	b = appendField(b, "|io=", int(opt.IOMode))
	b = appendField(b, "|oe=", opt.OutputEverySteps)
	b = append(b, "|nc="...)
	b = strconv.AppendBool(b, opt.NoContention)
	return append(b, '|')
}

// parseOptionsKey is appendOptionsKey's inverse: it reads the options
// segment from the front of s and returns what follows the segment. ok
// is false when a field is missing or does not parse; an enum out of
// range ("s=9") is left for the caller's Options.Validate, and a field
// that is not canonical ("r=064") for its re-render.
func parseOptionsKey(s string) (opt driver.Options, rest string, ok bool) {
	var f [7]string
	for i, tag := range [...]string{"|r=", "|s=", "|a=", "|m=", "|io=", "|oe=", "|nc="} {
		if s, ok = strings.CutPrefix(s, tag); !ok {
			return opt, s, false
		}
		end := strings.IndexByte(s, '|')
		if end < 0 {
			return opt, s, false
		}
		f[i], s = s[:end], s[end:]
	}
	var v [6]int
	var err error
	for i := range v {
		if v[i], err = strconv.Atoi(f[i]); err != nil {
			return opt, s, false
		}
	}
	opt.Ranks, opt.OutputEverySteps = v[0], v[5]
	opt.Strategy, opt.Alloc = driver.Strategy(v[1]), driver.AllocPolicy(v[2])
	opt.MapKind, opt.IOMode = driver.MapKind(v[3]), iosim.Mode(v[4])
	opt.NoContention, err = strconv.ParseBool(f[6])
	return opt, s[1:], err == nil
}

// appendField appends tag and v in decimal.
func appendField(b []byte, tag string, v int) []byte {
	return strconv.AppendInt(append(b, tag...), int64(v), 10)
}

// appendDomainKey appends the name-free geometry of the domain tree in
// depth-first sibling order: "(nx,ny,ratio,offx,offy" then each child,
// then ")".
func appendDomainKey(b []byte, d *nest.Domain) []byte {
	b = appendGeometry(b, d.NX, d.NY, d.Ratio, d.OffX, d.OffY)
	for _, c := range d.Children {
		b = appendDomainKey(b, c)
	}
	return append(b, ')')
}

// parseGeometry parses one "(nx,ny,ratio,offx,offy" ... ")" group from
// the front of s into a child of parent, or into a root when parent is
// nil, and returns the domain (nil if s does not start with a
// well-formed group) and what follows the group.
func parseGeometry(s string, parent *nest.Domain) (*nest.Domain, string) {
	if !strings.HasPrefix(s, "(") {
		return nil, s
	}
	end := strings.IndexAny(s[1:], "()") + 1
	if end == 0 {
		return nil, s
	}
	var v [5]int
	fields := strings.Split(s[1:end], ",")
	if len(fields) != len(v) {
		return nil, s
	}
	for i, f := range fields {
		var err error
		if v[i], err = strconv.Atoi(f); err != nil {
			return nil, s
		}
	}
	var d *nest.Domain
	if parent == nil {
		if v[2] != 1 || v[3] != 0 || v[4] != 0 {
			return nil, s
		}
		d = nest.Root("", v[0], v[1])
	} else {
		d = parent.AddChild("", v[0], v[1], v[2], v[3], v[4])
	}
	for s = s[end:]; strings.HasPrefix(s, "("); {
		var c *nest.Domain
		if c, s = parseGeometry(s, d); c == nil {
			return nil, s
		}
	}
	if !strings.HasPrefix(s, ")") {
		return nil, s
	}
	return d, s[1:]
}

// appendSpecKey is appendDomainKey over a spec tree, with sp's own
// ratio and offsets given (the root's are nest.Root's, not the spec's).
func appendSpecKey(b []byte, sp *DomainSpec, ratio, offX, offY int) []byte {
	b = appendGeometry(b, sp.NX, sp.NY, ratio, offX, offY)
	for i := range sp.Children {
		c := &sp.Children[i]
		b = appendSpecKey(b, c, c.Ratio, c.OffX, c.OffY)
	}
	return append(b, ')')
}

// appendGeometry opens one domain's key: "(nx,ny,ratio,offx,offy".
func appendGeometry(b []byte, nx, ny, ratio, offX, offY int) []byte {
	b = appendField(b, "(", nx)
	b = appendField(b, ",", ny)
	b = appendField(b, ",", ratio)
	b = appendField(b, ",", offX)
	return appendField(b, ",", offY)
}

package planserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// bodyPool recycles the buffers request bodies are read into, so a
// cache-hot request allocates nothing for its body.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// decodePlanRequest reads one PlanRequest from body exactly as
// json.NewDecoder over http.MaxBytesReader(w, body, maxBodyBytes) with
// DisallowUnknownFields would: same value, same error. A body read whole
// that parseRequest accepts is decoded by hand; every other body —
// malformed, outside the hand decoder's subset, over maxBodyBytes, or
// cut short by a read error — goes to encoding/json over the bytes read
// so far followed by the unread rest, so each reject and its message
// are encoding/json's own.
func decodePlanRequest(w http.ResponseWriter, body io.Reader, req *PlanRequest) error {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	b, whole := readCapped(body, (*bp)[:0], maxBodyBytes)
	*bp = b
	if whole && parseRequest(b, req) {
		return nil
	}
	// A fresh value, not req: the hand decoder may have written part of
	// req, and encoding/json merges into what it finds. Decoding into a
	// value of its own also keeps req, which escapes only on this path,
	// off the heap of every hand-decoded request.
	fresh := new(PlanRequest)
	rest := io.NopCloser(io.MultiReader(bytes.NewReader(b), body))
	dec := json.NewDecoder(http.MaxBytesReader(w, rest, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(fresh)
	*req = *fresh
	return err
}

// readCapped appends r's bytes to b until EOF (whole is true), a read
// error, or max bytes in b; b grows as needed.
func readCapped(r io.Reader, b []byte, max int) (_ []byte, whole bool) {
	for len(b) < max {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), max)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, true
		}
		if err != nil {
			return b, false
		}
	}
	return b, false
}

// maxParseDepth bounds how deep the hand decoder follows nested domains;
// deeper trees go to encoding/json.
const maxParseDepth = 16

// parseRequest decodes b into req by hand and reports whether it did.
// It accepts only a strict subset of JSON on which it provably yields
// what encoding/json with DisallowUnknownFields yields: exact-case
// known keys, each at most once per object; integers without fraction
// or exponent of at most 18 digits; printable-ASCII strings without
// escapes; true and false but no null; domains nested at most
// maxParseDepth deep; nothing but whitespace after the object. On
// false, req may be partly written.
func parseRequest(b []byte, req *PlanRequest) bool {
	p := parser{b: b}
	if !p.request(req) {
		return false
	}
	p.ws()
	return p.i == len(p.b)
}

// parser is the hand decoder's cursor over one body.
type parser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c, after whitespace, if it is next.
func (p *parser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// raw returns the next string's bytes, aliasing the body.
func (p *parser) raw() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// str decodes a string value into s.
func (p *parser) str(s *string) bool {
	r, ok := p.raw()
	*s = string(r)
	return ok
}

// int decodes an integer value into v.
func (p *parser) int(v *int) bool {
	p.ws()
	j := p.i
	neg := j < len(p.b) && p.b[j] == '-'
	if neg {
		j++
	}
	start := j
	var n int64
	for ; j < len(p.b) && '0' <= p.b[j] && p.b[j] <= '9'; j++ {
		n = n*10 + int64(p.b[j]-'0')
	}
	if d := j - start; d == 0 || d > 18 || d > 1 && p.b[start] == '0' || int64(int(n)) != n {
		return false
	}
	if neg {
		n = -n
	}
	*v, p.i = int(n), j
	return true
}

// bool decodes true or false into v.
func (p *parser) bool(v *bool) bool {
	p.ws()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*v, p.i = true, p.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*v, p.i = false, p.i+5
	default:
		return false
	}
	return true
}

// object decodes one object whose keys field maps to bit positions in
// a seen-mask and whose values member decodes; an unknown or repeated
// key fails it.
func (p *parser) object(field func(k []byte) int, member func(f int) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seen uint16
	for {
		k, ok := p.raw()
		if !ok || !p.eat(':') {
			return false
		}
		f := field(k)
		if f < 0 || seen&(1<<f) != 0 || !member(f) {
			return false
		}
		seen |= 1 << f
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// request decodes the top-level PlanRequest object.
func (p *parser) request(r *PlanRequest) bool {
	return p.object(requestField, func(f int) bool {
		switch f {
		case 0:
			return p.str(&r.Machine)
		case 1:
			return p.int(&r.Ranks)
		case 2:
			return p.str(&r.Strategy)
		case 3:
			return p.str(&r.Alloc)
		case 4:
			return p.str(&r.Mapping)
		case 5:
			return p.str(&r.IO)
		case 6:
			return p.int(&r.OutputEvery)
		case 7:
			return p.bool(&r.NoContention)
		default:
			return p.domain(&r.Domain, 1)
		}
	})
}

// requestField numbers PlanRequest's JSON keys for request.
func requestField(k []byte) int {
	switch string(k) {
	case "machine":
		return 0
	case "ranks":
		return 1
	case "strategy":
		return 2
	case "alloc":
		return 3
	case "mapping":
		return 4
	case "io":
		return 5
	case "output_every":
		return 6
	case "no_contention":
		return 7
	case "domain":
		return 8
	}
	return -1
}

// domain decodes one DomainSpec object at the given nesting depth.
func (p *parser) domain(d *DomainSpec, depth int) bool {
	if depth > maxParseDepth {
		return false
	}
	return p.object(domainField, func(f int) bool {
		switch f {
		case 0:
			return p.str(&d.Name)
		case 1:
			return p.int(&d.NX)
		case 2:
			return p.int(&d.NY)
		case 3:
			return p.int(&d.Ratio)
		case 4:
			return p.int(&d.OffX)
		case 5:
			return p.int(&d.OffY)
		default:
			return p.children(&d.Children, depth+1)
		}
	})
}

// domainField numbers DomainSpec's JSON keys for domain.
func domainField(k []byte) int {
	switch string(k) {
	case "name":
		return 0
	case "nx":
		return 1
	case "ny":
		return 2
	case "ratio":
		return 3
	case "off_x":
		return 4
	case "off_y":
		return 5
	case "children":
		return 6
	}
	return -1
}

// children decodes an array of DomainSpec objects. Like encoding/json,
// an empty array yields an empty, non-nil slice.
func (p *parser) children(cs *[]DomainSpec, depth int) bool {
	if !p.eat('[') {
		return false
	}
	*cs = []DomainSpec{}
	if p.eat(']') {
		return true
	}
	for {
		*cs = append(*cs, DomainSpec{})
		if !p.domain(&(*cs)[len(*cs)-1], depth) {
			return false
		}
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

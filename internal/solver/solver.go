// Package solver is the numerical dynamical core of the functional
// weather-simulation substrate: the 2D shallow-water equations
// integrated with a Lax-Friedrichs scheme over a halo-decomposed grid.
// It plays the role WRF's dynamics play in the paper — a real stencil
// computation whose parallel execution requires the 4-neighbour halo
// exchanges that the mapping and allocation strategies optimize.
//
// The parallel solution is bit-identical to the serial solution: each
// cell's update reads the same values in the same order regardless of
// the decomposition, so integration tests can verify halo exchange and
// nesting logic exactly.
//
// The package owns the two conventions every message about a tile
// rests on: the payload layout (Tile.Pack, row-major (h, hu, hv)
// triples; the halo exchange, Gather and wrfsim's coupling transfers
// all pack through it) and the block decomposition (Span and its
// inverse Part per axis, Decompose and its inverse Owner per grid).
package solver

import (
	"errors"
	"fmt"
	"math"

	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

// Params are the integration parameters.
type Params struct {
	Dt float64 // time step
	Dx float64 // grid spacing (same in x and y)
	G  float64 // gravitational acceleration
	// F is the Coriolis parameter (positive in the northern
	// hemisphere): momentum rotates clockwise-of-motion when F > 0,
	// which is what turns a pressure anomaly into a cyclone. Zero
	// disables rotation.
	F float64
	// Drag is a linear bottom-friction coefficient applied to momentum
	// (1/s). Zero disables friction.
	Drag float64
}

// DefaultParams returns stable parameters for O(1) initial heights
// (no rotation, no friction).
func DefaultParams() Params {
	return Params{Dt: 0.01, Dx: 1.0, G: 9.81}
}

// GeophysicalParams returns parameters with rotation and weak friction,
// for cyclone-like demonstrations.
func GeophysicalParams() Params {
	return Params{Dt: 0.01, Dx: 1.0, G: 9.81, F: 0.5, Drag: 0.01}
}

// State is a full-domain snapshot (no halo), row-major with x fastest.
type State struct {
	NX, NY    int
	H, HU, HV []float64
}

// NewState allocates a zero state.
func NewState(nx, ny int) *State {
	n := nx * ny
	return &State{NX: nx, NY: ny, H: make([]float64, n), HU: make([]float64, n), HV: make([]float64, n)}
}

// At returns the linear index of (x, y).
func (s *State) At(x, y int) int { return y*s.NX + x }

// Mass returns the total water volume, conserved by the scheme under
// reflective boundaries.
func (s *State) Mass() float64 {
	var m float64
	for _, h := range s.H {
		m += h
	}
	return m
}

// MaxDiff returns the maximum absolute difference of all fields
// between two states.
func (s *State) MaxDiff(o *State) float64 {
	var d float64
	for i := range s.H {
		d = math.Max(d, math.Abs(s.H[i]-o.H[i]))
		d = math.Max(d, math.Abs(s.HU[i]-o.HU[i]))
		d = math.Max(d, math.Abs(s.HV[i]-o.HV[i]))
	}
	return d
}

// InitFunc provides the initial condition at a global cell.
type InitFunc func(gx, gy int) (h, hu, hv float64)

// GaussianHill returns an initial condition with a Gaussian water bump
// centred at (cx, cy) on a unit-depth lake — the classic dam-break-like
// test case (and a stand-in for a tropical depression).
func GaussianHill(nx, ny int, cx, cy, amp, sigma float64) InitFunc {
	return func(gx, gy int) (float64, float64, float64) {
		dx := float64(gx) - cx
		dy := float64(gy) - cy
		return 1.0 + amp*math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma)), 0, 0
	}
}

// Tile is one rank's rectangular portion of a domain, stored with a
// one-cell halo ring.
type Tile struct {
	GNX, GNY int // global domain dims
	X0, Y0   int // global origin of the owned region
	W, H     int // owned region dims
	P        Params

	// Double-buffered fields, (W+2)*(H+2) with halo.
	h, hu, hv    []float64
	nh, nhu, nhv []float64

	// Rolling per-row flux scratch for the flux-once kernel (DESIGN §9):
	// lines for rows y-1, y and y+1 of the sweep. Each cell's six flux
	// components are computed exactly once per step instead of four
	// times, with bit-identical results (same expressions, same inputs).
	fl [3]fluxLine
}

// fluxLine holds the six flux components of one halo-extended row
// (x = -1 .. W), indexed by x+1: F = (fh, fhu, fhv) is the x-direction
// flux, G = (gh, ghu, ghv) the y-direction flux.
type fluxLine struct {
	fh, fhu, fhv []float64
	gh, ghu, ghv []float64
}

// carve cuts the next n floats off the front of *slab, with capacity
// clipped so neighbours in the slab can never be appended into.
func carve(slab *[]float64, n int) []float64 {
	b := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return b
}

// Errors returned by the tile operations.
var (
	ErrBadTile   = errors.New("solver: tile outside global domain")
	ErrBadDecomp = errors.New("solver: decomposition mismatch")
)

// NewTile creates a tile for the owned region [x0, x0+w) x [y0, y0+h).
func NewTile(gnx, gny, x0, y0, w, h int, p Params) (*Tile, error) {
	if w <= 0 || h <= 0 || x0 < 0 || y0 < 0 || x0+w > gnx || y0+h > gny {
		return nil, fmt.Errorf("%w: [%d,%d)+%dx%d in %dx%d", ErrBadTile, x0, y0, w, h, gnx, gny)
	}
	// One slab holds the six fields and the three flux lines: a tile is
	// two heap objects, which is what keeps an 8192-rank world (two
	// tiles per rank) cheap to build and to garbage-collect.
	n, ln := (w+2)*(h+2), w+2
	slab := make([]float64, 6*n+18*ln)
	t := &Tile{GNX: gnx, GNY: gny, X0: x0, Y0: y0, W: w, H: h, P: p}
	t.h, t.hu, t.hv = carve(&slab, n), carve(&slab, n), carve(&slab, n)
	t.nh, t.nhu, t.nhv = carve(&slab, n), carve(&slab, n), carve(&slab, n)
	for i := range t.fl {
		l := &t.fl[i]
		l.fh, l.fhu, l.fhv = carve(&slab, ln), carve(&slab, ln), carve(&slab, ln)
		l.gh, l.ghu, l.ghv = carve(&slab, ln), carve(&slab, ln), carve(&slab, ln)
	}
	return t, nil
}

// idx returns the buffer index of local cell (x, y), where (0,0) is the
// first owned cell and -1/W..H are halo positions.
func (t *Tile) idx(x, y int) int { return (y+1)*(t.W+2) + (x + 1) }

// Fill sets the owned region from the initial condition.
func (t *Tile) Fill(f InitFunc) {
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			i := t.idx(x, y)
			t.h[i], t.hu[i], t.hv[i] = f(t.X0+x, t.Y0+y)
		}
	}
}

// Interior copies the owned region into a state fragment at its global
// position within dst (dst must be the full-domain size).
func (t *Tile) Interior(dst *State) {
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			i := t.idx(x, y)
			j := dst.At(t.X0+x, t.Y0+y)
			dst.H[j], dst.HU[j], dst.HV[j] = t.h[i], t.hu[i], t.hv[i]
		}
	}
}

// Mass returns the owned region's water volume.
func (t *Tile) Mass() float64 {
	var m float64
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			m += t.h[t.idx(x, y)]
		}
	}
	return m
}

// SetReflective fills halo cells on global domain edges with reflective
// (free-slip wall) boundary values: height mirrored, normal momentum
// negated.
func (t *Tile) SetReflective() {
	if t.X0 == 0 {
		for y := -1; y <= t.H; y++ {
			src, dst := t.idx(0, y), t.idx(-1, y)
			t.h[dst], t.hu[dst], t.hv[dst] = t.h[src], -t.hu[src], t.hv[src]
		}
	}
	if t.X0+t.W == t.GNX {
		for y := -1; y <= t.H; y++ {
			src, dst := t.idx(t.W-1, y), t.idx(t.W, y)
			t.h[dst], t.hu[dst], t.hv[dst] = t.h[src], -t.hu[src], t.hv[src]
		}
	}
	if t.Y0 == 0 {
		for x := -1; x <= t.W; x++ {
			src, dst := t.idx(x, 0), t.idx(x, -1)
			t.h[dst], t.hu[dst], t.hv[dst] = t.h[src], t.hu[src], -t.hv[src]
		}
	}
	if t.Y0+t.H == t.GNY {
		for x := -1; x <= t.W; x++ {
			src, dst := t.idx(x, t.H-1), t.idx(x, t.H)
			t.h[dst], t.hu[dst], t.hv[dst] = t.h[src], t.hu[src], -t.hv[src]
		}
	}
}

// SetHaloCell sets one halo (or interior) cell by local coordinates;
// used by the nesting coupler to impose parent-interpolated boundary
// conditions.
func (t *Tile) SetHaloCell(x, y int, h, hu, hv float64) {
	i := t.idx(x, y)
	t.h[i], t.hu[i], t.hv[i] = h, hu, hv
}

// Pack copies the w x h rectangle of local cells at (x, y) (halo
// positions allowed) into buf row by row, three floats (h, hu, hv) per
// cell, and returns the number of floats written. It is the layout of
// every message a tile's cells travel in: halo edges, Gather's interior
// and the nesting coupler's transfers.
func (t *Tile) Pack(buf []float64, x, y, w, h int) int {
	k := 0
	for row := y; row < y+h; row++ {
		for i, end := t.idx(x, row), t.idx(x+w, row); i < end; i++ {
			buf[k], buf[k+1], buf[k+2] = t.h[i], t.hu[i], t.hv[i]
			k += 3
		}
	}
	return k
}

// unpack is Pack's inverse: it writes buf's triples into the w x h
// rectangle of local cells at (x, y).
func (t *Tile) unpack(buf []float64, x, y, w, h int) {
	k := 0
	for row := y; row < y+h; row++ {
		for i, end := t.idx(x, row), t.idx(x+w, row); i < end; i++ {
			t.h[i], t.hu[i], t.hv[i] = buf[k], buf[k+1], buf[k+2]
			k += 3
		}
	}
}

// fillFluxLine evaluates the six flux components of every cell of the
// halo-extended row y into ln. The expressions are exactly those of the
// per-cell flux closure of stepLFReference (reference_test.go), so the
// stored values are bit-for-bit the values that oracle recomputes at
// each of a cell's four uses. Every slice is re-cut to the row's length
// first, so the loop indexes them without bounds checks.
func (t *Tile) fillFluxLine(y int, ln *fluxLine) {
	g := t.P.G
	n := t.W + 2
	base := (y + 1) * n // == t.idx(-1, y)
	h := t.h[base : base+n]
	hu, hv := t.hu[base:][:len(h)], t.hv[base:][:len(h)]
	fh, fhu, fhv := ln.fh[:len(h)], ln.fhu[:len(h)], ln.fhv[:len(h)]
	gh, ghu, ghv := ln.gh[:len(h)], ln.ghu[:len(h)], ln.ghv[:len(h)]
	for j, hj := range h {
		if hj <= 0 {
			fh[j], fhu[j], fhv[j] = 0, 0, 0
			gh[j], ghu[j], ghv[j] = 0, 0, 0
			continue
		}
		huj, hvj := hu[j], hv[j]
		u, v := huj/hj, hvj/hj
		p := 0.5 * g * hj * hj
		fh[j], fhu[j], fhv[j] = huj, huj*u+p, huj*v
		gh[j], ghu[j], ghv[j] = hvj, hvj*u, hvj*v+p
	}
}

// lfRow is one field's Lax-Friedrichs update over one owned row. Every
// argument is a view aligned on the row's first owned cell, so cell x
// reads its west, east, south and north neighbours, its x-fluxes and
// its y-fluxes all at index x; after the re-cuts to len(out) the loop
// carries no bounds check.
func lfRow(out, w, e, s, n, fw, fe, gs, gn []float64, lx float64) {
	w, e, s, n = w[:len(out)], e[:len(out)], s[:len(out)], n[:len(out)]
	fw, fe, gs, gn = fw[:len(out)], fe[:len(out)], gs[:len(out)], gn[:len(out)]
	for x := range out {
		out[x] = 0.25*(e[x]+w[x]+n[x]+s[x]) - lx*((fe[x]-fw[x])+(gn[x]-gs[x]))
	}
}

// Step advances the owned region one time step, assuming halos are
// current. It is the flux-once Lax-Friedrichs kernel: a rolling window
// of three per-row flux lines replaces four flux evaluations per cell,
// and each row is updated field by field (three lfRow passes, then one
// Coriolis/drag pass over the provisional momenta when either is on).
// Output is bit-identical to the test-only stepLFReference by
// construction — fastpath_test.go enforces MaxDiff==0.
func (t *Tile) Step() {
	lx := t.P.Dt / (2 * t.P.Dx)
	fcor := t.P.F * t.P.Dt
	drag := t.P.Drag * t.P.Dt
	w, stride := t.W, t.W+2
	lm, lc, lp := &t.fl[0], &t.fl[1], &t.fl[2]
	t.fillFluxLine(-1, lm)
	t.fillFluxLine(0, lc)
	t.fillFluxLine(1, lp)
	for y := 0; y < t.H; y++ {
		c := (y+1)*stride + 1 // == t.idx(0, y)
		s, n := c-stride, c+stride
		lfRow(t.nh[c:c+w], t.h[c-1:], t.h[c+1:], t.h[s:], t.h[n:], lc.fh, lc.fh[2:], lm.gh[1:], lp.gh[1:], lx)
		nhu, nhv := t.nhu[c:c+w], t.nhv[c:c+w]
		lfRow(nhu, t.hu[c-1:], t.hu[c+1:], t.hu[s:], t.hu[n:], lc.fhu, lc.fhu[2:], lm.ghu[1:], lp.ghu[1:], lx)
		lfRow(nhv, t.hv[c-1:], t.hv[c+1:], t.hv[s:], t.hv[n:], lc.fhv, lc.fhv[2:], lm.ghv[1:], lp.ghv[1:], lx)
		if fcor != 0 || drag != 0 {
			nhv = nhv[:len(nhu)]
			for x, hu := range nhu {
				hv := nhv[x]
				if fcor != 0 {
					// Coriolis source terms: du/dt = +f v, dv/dt = -f u,
					// applied to the provisional momenta (point-local, so
					// parallel runs stay bit-identical to serial).
					hu, hv = hu+fcor*hv, hv-fcor*hu
				}
				if drag != 0 {
					hu -= drag * hu
					hv -= drag * hv
				}
				nhu[x], nhv[x] = hu, hv
			}
		}
		if y+1 < t.H {
			// Row y+2 <= H is always a valid halo-extended row.
			lm, lc, lp = lc, lp, lm
			t.fillFluxLine(y+2, lp)
		}
	}
	t.h, t.nh = t.nh, t.h
	t.hu, t.nhu = t.nhu, t.hu
	t.hv, t.nhv = t.nhv, t.hv
}

// Halo-exchange tags: one per direction so concurrent exchanges match
// deterministically.
const (
	tagEast = iota + 100
	tagWest
	tagNorth
	tagSouth
)

// dirTag maps a direction to its halo tag (indexed by vtopo.Direction).
var dirTag = [4]int{
	vtopo.West:  tagWest,
	vtopo.East:  tagEast,
	vtopo.South: tagSouth,
	vtopo.North: tagNorth,
}

// side returns the rectangle of local cells along the edge facing d:
// the owned boundary column or row, or with halo the halo column or row
// beyond it.
func (t *Tile) side(d vtopo.Direction, halo bool) (x, y, w, h int) {
	beyond := 0
	if halo {
		beyond = 1
	}
	switch d {
	case vtopo.West:
		return -beyond, 0, 1, t.H
	case vtopo.East:
		return t.W - 1 + beyond, 0, 1, t.H
	case vtopo.South:
		return 0, -beyond, t.W, 1
	default: // North
		return 0, t.H - 1 + beyond, t.W, 1
	}
}

// Exchange performs the 4-neighbour halo exchange over the
// communicator, whose ranks form the given process grid (local rank i
// at grid position (i%Px, i/Px)). Ranks on domain edges fill reflective
// boundaries instead.
//
// The exchange is allocation-free in steady state: edges are packed
// into pooled payloads sent with ownership transfer, and received
// payloads are recycled after unpacking. Because sends are eager in
// this runtime, posting all sends first and then receiving in fixed
// direction order has exactly the virtual-time behavior of a
// nonblocking Isend/Irecv exchange (total wait telescopes to the latest
// arrival regardless of receive order); reference_test.go keeps that
// variant as the oracle.
func (t *Tile) Exchange(c *mpi.Comm, grid vtopo.Grid) error {
	me := c.Rank()
	for d := vtopo.West; d <= vtopo.North; d++ {
		nb := grid.Neighbor(me, d)
		if nb < 0 {
			continue
		}
		x, y, w, h := t.side(d, false)
		buf := c.AllocPayload(3 * w * h)
		t.Pack(buf, x, y, w, h)
		c.SendOwned(nb, dirTag[d], buf)
	}
	for d := vtopo.West; d <= vtopo.North; d++ {
		nb := grid.Neighbor(me, d)
		if nb < 0 {
			continue
		}
		// The neighbour's message towards us carries the tag of the
		// direction it sent (its d.Opposite() is our d).
		data, err := c.Recv(nb, dirTag[d.Opposite()])
		if err != nil {
			return err
		}
		x, y, w, h := t.side(d, true)
		t.unpack(data, x, y, w, h)
		c.FreePayload(data)
	}
	t.SetReflective()
	return nil
}

// Decompose returns the owned rectangle of local rank r in a Px x Py
// block decomposition of an nx x ny domain: the product of one Span per
// axis. Owner is its inverse.
func Decompose(nx, ny int, grid vtopo.Grid, r int) (x0, y0, w, h int) {
	cx, cy := grid.Coord(r)
	x0, w = Span(nx, grid.Px, cx)
	y0, h = Span(ny, grid.Py, cy)
	return x0, y0, w, h
}

// Owner returns the local rank whose Decompose rectangle holds global
// cell (gx, gy).
func Owner(nx, ny int, grid vtopo.Grid, gx, gy int) int {
	return grid.Rank(Part(nx, grid.Px, gx), Part(ny, grid.Py, gy))
}

// Span returns part i's cells [start, start+size) when n cells are
// split into parts blocks, the remainder spread one apiece over the
// leading parts.
func Span(n, parts, i int) (start, size int) {
	base, rem := n/parts, n%parts
	size = base
	if i < rem {
		size++
	}
	return i*base + min(i, rem), size
}

// Part is Span's inverse: the part holding cell g, 0 <= g < n.
func Part(n, parts, g int) int {
	base, rem := n/parts, n%parts
	// The first rem parts have size base+1; with more parts than cells
	// (base 0) they hold every cell, so base never divides.
	if bound := rem * (base + 1); g >= bound {
		return rem + (g-bound)/base
	}
	return g / (base + 1)
}

// RunSerial integrates the full domain on a single tile for the given
// number of steps and returns the final state — the reference solution
// for parallel-equivalence tests.
func RunSerial(nx, ny, steps int, p Params, init InitFunc) (*State, error) {
	t, err := NewTile(nx, ny, 0, 0, nx, ny, p)
	if err != nil {
		return nil, err
	}
	t.Fill(init)
	for s := 0; s < steps; s++ {
		t.SetReflective()
		t.Step()
	}
	out := NewState(nx, ny)
	t.Interior(out)
	return out, nil
}

// Gather assembles the full state from every rank's tile at local rank
// 0 of the communicator; other ranks receive nil. Payloads travel as
// pooled owned buffers and are recycled at the root after decoding.
func Gather(c *mpi.Comm, t *Tile) (*State, error) {
	// Payload: x0, y0, w, h, then fields.
	payload := c.AllocPayload(4 + 3*t.W*t.H)
	payload[0], payload[1] = float64(t.X0), float64(t.Y0)
	payload[2], payload[3] = float64(t.W), float64(t.H)
	t.Pack(payload[4:], 0, 0, t.W, t.H)
	all, err := c.Gather(payload)
	if err != nil {
		return nil, err
	}
	if all == nil {
		return nil, nil
	}
	out := NewState(t.GNX, t.GNY)
	for _, d := range all {
		x0, y0 := int(d[0]), int(d[1])
		w, h := int(d[2]), int(d[3])
		if len(d) != 4+3*w*h {
			return nil, fmt.Errorf("%w: payload %d for %dx%d tile", ErrBadDecomp, len(d), w, h)
		}
		k := 4
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				j := out.At(x0+x, y0+y)
				out.H[j], out.HU[j], out.HV[j] = d[k], d[k+1], d[k+2]
				k += 3
			}
		}
		c.FreePayload(d)
	}
	return out, nil
}

package solver

import (
	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

// The kernel and halo exchange as they stood before the flux-once
// kernel and the pooled owned-send exchange replaced them, kept
// verbatim as the test-only oracles of fastpath_test.go.

// stepLFReference is the retained pre-PR5 Lax-Friedrichs kernel: a
// 6-return flux closure evaluated at all four neighbours of every cell,
// i.e. each cell's flux computed four times. It is the oracle the
// flux-once kernel is tested against.
func (t *Tile) stepLFReference() {
	lx := t.P.Dt / (2 * t.P.Dx)
	g := t.P.G
	flux := func(i int) (fh, fhu, fhv, gh, ghu, ghv float64) {
		h, hu, hv := t.h[i], t.hu[i], t.hv[i]
		if h <= 0 {
			return 0, 0, 0, 0, 0, 0
		}
		u, v := hu/h, hv/h
		p := 0.5 * g * h * h
		return hu, hu*u + p, hu * v, hv, hv * u, hv*v + p
	}
	fcor := t.P.F * t.P.Dt
	drag := t.P.Drag * t.P.Dt
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			c := t.idx(x, y)
			e, w := t.idx(x+1, y), t.idx(x-1, y)
			n, s := t.idx(x, y+1), t.idx(x, y-1)

			feh, fehu, fehv, _, _, _ := flux(e)
			fwh, fwhu, fwhv, _, _, _ := flux(w)
			_, _, _, gnh, gnhu, gnhv := flux(n)
			_, _, _, gsh, gshu, gshv := flux(s)

			nh := 0.25*(t.h[e]+t.h[w]+t.h[n]+t.h[s]) - lx*((feh-fwh)+(gnh-gsh))
			nhu := 0.25*(t.hu[e]+t.hu[w]+t.hu[n]+t.hu[s]) - lx*((fehu-fwhu)+(gnhu-gshu))
			nhv := 0.25*(t.hv[e]+t.hv[w]+t.hv[n]+t.hv[s]) - lx*((fehv-fwhv)+(gnhv-gshv))
			if fcor != 0 {
				nhu, nhv = nhu+fcor*nhv, nhv-fcor*nhu
			}
			if drag != 0 {
				nhu -= drag * nhu
				nhv -= drag * nhv
			}
			t.nh[c] = nh
			t.nhu[c] = nhu
			t.nhv[c] = nhv
		}
	}
	t.h, t.nh = t.nh, t.h
	t.hu, t.nhu = t.nhu, t.hu
	t.hv, t.nhv = t.nhv, t.hv
}

// exchangeReference is the retained pre-PR5 halo exchange: fresh pack
// slices per direction per step, copying sends and nonblocking request
// handles. It computes identical fields and virtual times to Exchange.
func (t *Tile) exchangeReference(c *mpi.Comm, grid vtopo.Grid) error {
	me := c.Rank()
	pack := func(dir vtopo.Direction) []float64 {
		var out []float64
		switch dir {
		case vtopo.West:
			out = make([]float64, 0, 3*t.H)
			for y := 0; y < t.H; y++ {
				i := t.idx(0, y)
				out = append(out, t.h[i], t.hu[i], t.hv[i])
			}
		case vtopo.East:
			out = make([]float64, 0, 3*t.H)
			for y := 0; y < t.H; y++ {
				i := t.idx(t.W-1, y)
				out = append(out, t.h[i], t.hu[i], t.hv[i])
			}
		case vtopo.South:
			out = make([]float64, 0, 3*t.W)
			for x := 0; x < t.W; x++ {
				i := t.idx(x, 0)
				out = append(out, t.h[i], t.hu[i], t.hv[i])
			}
		default: // North
			out = make([]float64, 0, 3*t.W)
			for x := 0; x < t.W; x++ {
				i := t.idx(x, t.H-1)
				out = append(out, t.h[i], t.hu[i], t.hv[i])
			}
		}
		return out
	}
	unpack := func(dir vtopo.Direction, data []float64) {
		switch dir {
		case vtopo.West:
			for y := 0; y < t.H; y++ {
				i := t.idx(-1, y)
				t.h[i], t.hu[i], t.hv[i] = data[3*y], data[3*y+1], data[3*y+2]
			}
		case vtopo.East:
			for y := 0; y < t.H; y++ {
				i := t.idx(t.W, y)
				t.h[i], t.hu[i], t.hv[i] = data[3*y], data[3*y+1], data[3*y+2]
			}
		case vtopo.South:
			for x := 0; x < t.W; x++ {
				i := t.idx(x, -1)
				t.h[i], t.hu[i], t.hv[i] = data[3*x], data[3*x+1], data[3*x+2]
			}
		default: // North
			for x := 0; x < t.W; x++ {
				i := t.idx(x, t.H)
				t.h[i], t.hu[i], t.hv[i] = data[3*x], data[3*x+1], data[3*x+2]
			}
		}
	}
	tags := map[vtopo.Direction]int{
		vtopo.East: tagEast, vtopo.West: tagWest,
		vtopo.North: tagNorth, vtopo.South: tagSouth,
	}

	var sends []*mpi.Request
	recvs := map[vtopo.Direction]*mpi.Request{}
	for d := vtopo.West; d <= vtopo.North; d++ {
		nb := grid.Neighbor(me, d)
		if nb < 0 {
			continue
		}
		sends = append(sends, c.Isend(nb, tags[d], pack(d)))
		// The neighbour's message towards us carries the tag of the
		// direction it sent (its d.Opposite() is our d).
		recvs[d] = c.Irecv(nb, tags[d.Opposite()])
	}
	for d, r := range recvs {
		data, err := r.Wait()
		if err != nil {
			return err
		}
		unpack(d, data)
	}
	if err := mpi.WaitAll(sends...); err != nil {
		return err
	}
	t.SetReflective()
	return nil
}

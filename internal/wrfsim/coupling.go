package wrfsim

import (
	"cmp"
	"fmt"
	"slices"

	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/solver"
	"nestwrf/internal/telemetry"
	"nestwrf/internal/vtopo"
)

// floorDiv is integer division rounding toward negative infinity, used
// to map child halo coordinates (which can be -1) to parent cells.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// rect is a rectangle of source-domain cells, in global coordinates.
type rect struct{ x0, y0, w, h int }

// transfer is one (src, dst) message of a coupling exchange, in either
// direction: the sender packs the cells of rects from its source tile,
// one solver.Tile.Pack per rectangle, and the receiver stashes the
// payload in its inbox at slot.
type transfer struct {
	src, dst int // world ranks
	rects    []rect
	floats   int // payload length: 3 * total cells
	slot     int // index in dst's inbox (the per-rank payload stash)
}

// cellRef locates one (h, hu, hv) triple inside a rank's inbox: the
// slot of its payload and the float offset within it. Slots are per
// destination rank, so a rank's stash is sized by its own incoming
// transfers, not the nest's — the latter made per-rank stash memory
// O(world) and the whole run O(world²) at startup.
type cellRef struct {
	slot int32
	off  int32
}

// target is one cell a rank writes from its inbox: its tile-local
// coordinates and the triples it is made of, pre-resolved to payload
// positions (for feedback, its child block in canonical child-global
// row-major order; for a boundary condition, the one parent value).
type target struct {
	lx, ly int
	srcs   []cellRef
}

// couplingPlan is one direction of one nest's coupling, precomputed:
// the transfers sorted by (src, dst), each world rank's send and receive
// lists and inbox size, and each rank's targets. It depends only on the
// domain geometry and process grids, so Run builds it once and shares it
// read-only across ranks (the inboxes live on each rank's nestCtx).
type couplingPlan struct {
	transfers []*transfer
	// Per-rank indexes over transfers, in sorted order (so per-rank
	// message order matches a filtered scan of transfers): sendByRank
	// includes self-transfers, recvByRank excludes them, and inboxLen is
	// each rank's stash size (slots cover both).
	sendByRank [][]*transfer
	recvByRank [][]*transfer
	inboxLen   []int
	targets    [][]target // by world rank
}

// newCouplingPlan indexes one direction's transfers by world rank: it
// sorts them by (src, dst), gives each its slot in its destination's
// inbox, and carves the per-rank lists: a rank's sends are one run of
// the sorted list, its receives (self-transfers excluded) come from one
// slab. The plan points into trs; the builder fills the targets.
func newCouplingPlan(trs []transfer, nranks int) *couplingPlan {
	plan := &couplingPlan{
		transfers:  make([]*transfer, len(trs)),
		sendByRank: make([][]*transfer, nranks),
		recvByRank: make([][]*transfer, nranks),
		inboxLen:   make([]int, nranks),
		targets:    make([][]target, nranks),
	}
	for i := range trs {
		plan.transfers[i] = &trs[i]
	}
	slices.SortFunc(plan.transfers, func(a, b *transfer) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
	})
	for _, tr := range plan.transfers {
		tr.slot = plan.inboxLen[tr.dst]
		plan.inboxLen[tr.dst]++
	}
	recvSlab := make([]*transfer, len(trs))
	run := 0
	for i, tr := range plan.transfers {
		if j := i + 1; j == len(trs) || plan.transfers[j].src != tr.src {
			plan.sendByRank[tr.src] = plan.transfers[run:j:j]
			run = j
		}
		if tr.dst == tr.src {
			continue
		}
		if plan.recvByRank[tr.dst] == nil {
			n := plan.inboxLen[tr.dst]
			plan.recvByRank[tr.dst], recvSlab = recvSlab[:0:n], recvSlab[n:]
		}
		plan.recvByRank[tr.dst] = append(plan.recvByRank[tr.dst], tr)
	}
	return plan
}

// haloRing enumerates the child's halo-ring cells in canonical order.
func haloRing(c *nest.Domain) [][2]int {
	out := make([][2]int, 0, 2*(c.NX+2)+2*c.NY)
	for x := -1; x <= c.NX; x++ {
		out = append(out, [2]int{x, -1}, [2]int{x, c.NY})
	}
	for y := 0; y < c.NY; y++ {
		out = append(out, [2]int{-1, y}, [2]int{c.NX, y})
	}
	return out
}

// buildBCPlan computes the boundary-condition plan of one nest. Each
// halo-ring cell is fed by the parent cell under it, read at its owner
// (src), and written on the child tile adjacent to it (dst). There is
// one transfer per (src, dst), carrying its cells in halo-ring order as
// 1×1 rectangles; a parent cell under several halo cells is sent once
// for each. Each member's targets are its halo-ring cells, one triple
// apiece.
func buildBCPlan(cfg *nest.Domain, grid vtopo.Grid, c *nest.Domain, cgrid vtopo.Grid, cworld []int) *couplingPlan {
	type ringCell struct {
		src, dst int
		parent   rect
		lx, ly   int // in dst's tile
	}
	ring := haloRing(c)
	cells := make([]ringCell, len(ring))
	for i, hc := range ring {
		cr := solver.Owner(c.NX, c.NY, cgrid, clampInt(hc[0], 0, c.NX-1), clampInt(hc[1], 0, c.NY-1))
		x0, y0, _, _ := solver.Decompose(c.NX, c.NY, cgrid, cr)
		px := clampInt(c.OffX+floorDiv(hc[0], c.Ratio), 0, cfg.NX-1)
		py := clampInt(c.OffY+floorDiv(hc[1], c.Ratio), 0, cfg.NY-1)
		cells[i] = ringCell{
			src: solver.Owner(cfg.NX, cfg.NY, grid, px, py), dst: cworld[cr],
			parent: rect{px, py, 1, 1}, lx: hc[0] - x0, ly: hc[1] - y0,
		}
	}
	pair := func(a, b ringCell) int { return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst)) }
	slices.SortStableFunc(cells, pair)

	// One transfer per run of equal (src, dst), its rectangles carved
	// from one slab.
	rects := make([]rect, len(cells))
	n := 0
	for i := range cells {
		rects[i] = cells[i].parent
		if i == 0 || pair(cells[i-1], cells[i]) != 0 {
			n++
		}
	}
	trs := make([]transfer, 0, n)
	for i, j := 0, 1; i < len(cells); i, j = j, j+1 {
		for j < len(cells) && pair(cells[i], cells[j]) == 0 {
			j++
		}
		trs = append(trs, transfer{src: cells[i].src, dst: cells[i].dst, rects: rects[i:j:j], floats: 3 * (j - i)})
	}
	plan := newCouplingPlan(trs, grid.Size())

	// Targets, carved per destination rank from one slab.
	count := make([]int, grid.Size())
	for _, cl := range cells {
		count[cl.dst]++
	}
	slab := make([]target, len(cells))
	for r, k := range count {
		plan.targets[r], slab = slab[:0:k], slab[k:]
	}
	refs := make([]cellRef, len(cells))
	i := 0
	for t := range trs {
		tr := &trs[t]
		for k := range tr.rects {
			refs[i] = cellRef{slot: int32(tr.slot), off: int32(3 * k)}
			plan.targets[tr.dst] = append(plan.targets[tr.dst], target{lx: cells[i].lx, ly: cells[i].ly, srcs: refs[i : i+1 : i+1]})
			i++
		}
	}
	return plan
}

// fbAxis is one dimension of a nest's feedback geometry. The block
// decomposition is a product of per-axis splits, so everything the plan
// builder needs — who owns a footprint cell, which child parts overlap
// its block, which parent parts a child part feeds — is a product of two
// of these tables, each linear in the footprint and the part counts.
type fbAxis struct {
	// By footprint cell (parent cell minus the nest offset).
	owner  []int // owning parent part
	local  []int // coordinate within the owner's tile
	lo, hi []int // first and last child part overlapping the cell's block
	// By child part.
	t0, t1 []int // child cells [t0, t1)
	d0, nd []int // first parent part fed, and how many (0 for an empty part)
	// Parent parts p0 .. p0+len(cells)-1 own the footprint; cells[k] is
	// part p0+k's footprint-cell count.
	p0    int
	cells []int
	// overlaps is the number of (footprint cell, overlapping child
	// part) pairs.
	overlaps int
}

func newFBAxis(pn, pparts, off, cn, cparts, ratio int) fbAxis {
	f := (cn + ratio - 1) / ratio
	ft := make([]int, 4*f)
	pt := make([]int, 4*cparts)
	a := fbAxis{
		owner: ft[:f], local: ft[f : 2*f], lo: ft[2*f : 3*f], hi: ft[3*f:],
		t0: pt[:cparts], t1: pt[cparts : 2*cparts], d0: pt[2*cparts : 3*cparts], nd: pt[3*cparts:],
	}
	a.p0 = solver.Part(pn, pparts, off)
	a.cells = make([]int, solver.Part(pn, pparts, off+f-1)-a.p0+1)
	for i := 0; i < f; i++ {
		o := solver.Part(pn, pparts, off+i)
		start, _ := solver.Span(pn, pparts, o)
		a.owner[i], a.local[i] = o, off+i-start
		a.cells[o-a.p0]++
		a.lo[i] = solver.Part(cn, cparts, i*ratio)
		a.hi[i] = solver.Part(cn, cparts, min((i+1)*ratio, cn)-1)
		a.overlaps += a.hi[i] - a.lo[i] + 1
	}
	for r := 0; r < cparts; r++ {
		start, size := solver.Span(cn, cparts, r)
		a.t0[r], a.t1[r] = start, start+size
		if size > 0 {
			a.d0[r] = a.owner[start/ratio]
			a.nd[r] = a.owner[(start+size-1)/ratio] - a.d0[r] + 1
		}
	}
	return a
}

// fed returns how many footprint cells of child part r parent part d
// owns (d must be one of the parts r feeds).
func (a *fbAxis) fed(r, d, ratio int) int {
	n := 0
	for i := a.t0[r] / ratio; i <= (a.t1[r]-1)/ratio; i++ {
		if a.owner[i] == d {
			n++
		}
	}
	return n
}

// buildFBPlan computes the feedback plan of one nest in time and memory
// linear in what the plan holds. A feedback message carries the raw
// child cells of each (parent cell block ∩ child tile) rectangle rather
// than a partial sum, so the parent owner can accumulate every block in
// one canonical order — the property that makes feedback, and therefore
// the whole functional run, bit-identical across process
// decompositions. The transfers are enumerated up front from the
// per-axis tables (child tile r feeds exactly the rectangle of parent
// ranks its footprint touches), so one pass over the footprint fills
// every rectangle and every target by index arithmetic, and all
// rectangles, targets and per-rank lists are carved from per-plan
// slabs. reference_test.go keeps the scan-every-tile builder this
// replaced as the oracle.
func buildFBPlan(cfg *nest.Domain, grid vtopo.Grid, c *nest.Domain, cgrid vtopo.Grid, cworld []int) *couplingPlan {
	ratio := c.Ratio
	ax := newFBAxis(cfg.NX, grid.Px, c.OffX, c.NX, cgrid.Px, ratio)
	ay := newFBAxis(cfg.NY, grid.Py, c.OffY, c.NY, cgrid.Py, ratio)

	// Transfers of child tile r start at tbase[r], ordered by ascending
	// destination rank; each gets its exact rectangle capacity.
	tbase := make([]int, cgrid.Size()+1)
	for r := range tbase[1:] {
		rx, ry := cgrid.Coord(r)
		tbase[r+1] = tbase[r] + ax.nd[rx]*ay.nd[ry]
	}
	trs := make([]transfer, tbase[cgrid.Size()])
	rects := make([]rect, ax.overlaps*ay.overlaps)
	for r := 0; r < cgrid.Size(); r++ {
		rx, ry := cgrid.Coord(r)
		i := tbase[r]
		for ky := 0; ky < ay.nd[ry]; ky++ {
			ny := ay.fed(ry, ay.d0[ry]+ky, ratio)
			for kx := 0; kx < ax.nd[rx]; kx++ {
				n := ny * ax.fed(rx, ax.d0[rx]+kx, ratio)
				trs[i] = transfer{src: cworld[r], dst: grid.Rank(ax.d0[rx]+kx, ay.d0[ry]+ky)}
				trs[i].rects, rects = rects[:0:n], rects[n:]
				i++
			}
		}
	}
	plan := newCouplingPlan(trs, grid.Size())

	// Targets: each parent rank's owned footprint cells, in footprint
	// row-major order, with every block's child cells in child-global
	// row-major order regardless of how the nest is decomposed.
	ownedSlab := make([]target, len(ax.owner)*len(ay.owner))
	for ky, ny := range ay.cells {
		for kx, nx := range ax.cells {
			r := grid.Rank(ax.p0+kx, ay.p0+ky)
			plan.targets[r], ownedSlab = ownedSlab[:0:nx*ny], ownedSlab[nx*ny:]
		}
	}
	arena := make([]cellRef, c.NX*c.NY)
	for fy := range ay.owner {
		by0 := fy * ratio
		by1 := min(by0+ratio, c.NY)
		for fx := range ax.owner {
			bx0 := fx * ratio
			bx1 := min(bx0+ratio, c.NX)
			bw := bx1 - bx0
			n := bw * (by1 - by0)
			var srcs []cellRef
			srcs, arena = arena[:n:n], arena[n:]
			for ry := ay.lo[fy]; ry <= ay.hi[fy]; ry++ {
				iy0, iy1 := max(by0, ay.t0[ry]), min(by1, ay.t1[ry])
				for rx := ax.lo[fx]; rx <= ax.hi[fx]; rx++ {
					ix0, ix1 := max(bx0, ax.t0[rx]), min(bx1, ax.t1[rx])
					tr := &trs[tbase[cgrid.Rank(rx, ry)]+(ay.owner[fy]-ay.d0[ry])*ax.nd[rx]+ax.owner[fx]-ax.d0[rx]]
					w, off := ix1-ix0, tr.floats
					tr.rects = append(tr.rects, rect{x0: ix0, y0: iy0, w: w, h: iy1 - iy0})
					tr.floats += 3 * w * (iy1 - iy0)
					for y := iy0; y < iy1; y++ {
						row := srcs[(y-by0)*bw+ix0-bx0:]
						for x := 0; x < w; x++ {
							row[x] = cellRef{slot: int32(tr.slot), off: int32(off)}
							off += 3
						}
					}
				}
			}
			owner := grid.Rank(ax.owner[fx], ay.owner[fy])
			plan.targets[owner] = append(plan.targets[owner], target{lx: ax.local[fx], ly: ay.local[fy], srcs: srcs})
		}
	}
	return plan
}

// exchange moves one coupling direction's payloads for this rank: it
// packs each of its sends from src (the parent tile for boundary
// conditions, the nest tile for feedback) into a pooled buffer, sends it
// owned or, for a self-transfer, stashes it, and receives the rest in
// plan order. On return inbox holds every payload addressed to this
// rank by slot; the caller applies them and then releases them.
func (nc *nestCtx) exchange(world *mpi.Comm, kind string, tag int, p *couplingPlan, src *solver.Tile, inbox [][]float64) error {
	if nc.tracer.Recording() {
		sp := nc.tracer.Start(nc.span, kind+":"+nc.d.Name, telemetry.LayerPhase)
		defer sp.End()
	}
	me := world.Rank()
	for _, tr := range p.sendByRank[me] {
		buf := world.AllocPayload(tr.floats)
		k := 0
		for _, r := range tr.rects {
			k += src.Pack(buf[k:], r.x0-src.X0, r.y0-src.Y0, r.w, r.h)
		}
		if tr.dst == me {
			inbox[tr.slot] = buf
			continue
		}
		world.SendOwned(tr.dst, tag, buf)
	}
	for _, tr := range p.recvByRank[me] {
		data, err := world.Recv(tr.src, tag)
		if err != nil {
			return err
		}
		if len(data) != tr.floats {
			return fmt.Errorf("wrfsim: %s payload %d floats, want %d", kind, len(data), tr.floats)
		}
		inbox[tr.slot] = data
	}
	return nil
}

// applyBC writes this rank's halo-ring cells of its nest tile from the
// BC inbox, each triple copied exactly (so -0 stays -0).
func (nc *nestCtx) applyBC() {
	for _, c := range nc.bc.targets[nc.me] {
		r := c.srcs[0]
		p := nc.bcInbox[r.slot]
		nc.tile.SetHaloCell(c.lx, c.ly, p[r.off], p[r.off+1], p[r.off+2])
	}
}

// applyFeedback averages the feedback inbox onto the parent cells this
// rank owns under the nest: each block's child cells are accumulated
// from zero in canonical child-global row-major order, then divided by
// their count.
func (nc *nestCtx) applyFeedback(parent *solver.Tile) {
	ts := nc.fb.targets[nc.me]
	for i := range ts {
		c := &ts[i]
		var h, hu, hv float64
		for _, r := range c.srcs {
			p := nc.fbInbox[r.slot]
			h += p[r.off]
			hu += p[r.off+1]
			hv += p[r.off+2]
		}
		n := float64(len(c.srcs))
		parent.SetHaloCell(c.lx, c.ly, h/n, hu/n, hv/n)
	}
}

// release returns an inbox's payloads to the world pool.
func release(c *mpi.Comm, inbox [][]float64) {
	for i, b := range inbox {
		if b != nil {
			c.FreePayload(b)
			inbox[i] = nil
		}
	}
}

// collectStates gathers the parent and all nest states at world rank 0.
func collectStates(world *mpi.Comm, parent *solver.Tile, nests []nestCtx, out *Output) error {
	st, err := solver.Gather(world, parent)
	if err != nil {
		return err
	}
	if st != nil {
		out.Parent = st
	}
	for i := range nests {
		nc := &nests[i]
		tag := tagState + i
		if nc.tile != nil {
			sub, err := solver.Gather(nc.comm, nc.tile)
			if err != nil {
				return err
			}
			if sub != nil { // nest-comm root
				root := nc.world[0]
				if root == 0 {
					out.Nests[i] = sub
					continue
				}
				if world.Rank() == root {
					buf := world.AllocPayload(stateLen(sub))
					encodeState(buf, sub)
					world.SendOwned(0, tag, buf)
				}
			}
		}
		if world.Rank() == 0 && nc.world[0] != 0 {
			data, err := world.Recv(nc.world[0], tag)
			if err != nil {
				return err
			}
			out.Nests[i] = decodeState(data)
			world.FreePayload(data)
		}
	}
	return nil
}

// stateLen is the length of s's encoding.
func stateLen(s *solver.State) int { return 2 + 3*len(s.H) }

// encodeState writes s into buf, which holds stateLen(s) floats:
// (NX, NY), then H, HU and HV.
func encodeState(buf []float64, s *solver.State) {
	buf[0], buf[1] = float64(s.NX), float64(s.NY)
	n := len(s.H)
	copy(buf[2:], s.H)
	copy(buf[2+n:], s.HU)
	copy(buf[2+2*n:], s.HV)
}

func decodeState(d []float64) *solver.State {
	nx, ny := int(d[0]), int(d[1])
	n := nx * ny
	s := solver.NewState(nx, ny)
	copy(s.H, d[2:2+n])
	copy(s.HU, d[2+n:2+2*n])
	copy(s.HV, d[2+2*n:2+3*n])
	return s
}

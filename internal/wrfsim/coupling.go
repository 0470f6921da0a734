package wrfsim

import (
	"fmt"
	"sort"

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

// ownerOf returns the rank (in the given process grid) owning global
// cell (gx, gy) of an nx x ny domain under the block decomposition of
// solver.Decompose.
func ownerOf(nx, ny int, grid vtopo.Grid, gx, gy int) int {
	return grid.Rank(ownerIdx(nx, grid.Px, gx), ownerIdx(ny, grid.Py, gy))
}

// ownerIdx inverts solver.Decompose's share function along one
// dimension.
func ownerIdx(n, parts, g int) int {
	base := n / parts
	rem := n % parts
	// The first rem parts have size base+1.
	bound := rem * (base + 1)
	if g < bound {
		return g / (base + 1)
	}
	if base == 0 {
		return rem // degenerate: more parts than cells
	}
	return rem + (g-bound)/base
}

// span returns part i's cells [start, start+size) along one dimension
// of solver.Decompose's block decomposition; ownerIdx is its inverse.
func span(n, parts, i int) (start, size int) {
	start, _, size, _ = solver.Decompose(n, 1, vtopo.Grid{Px: parts, Py: 1}, i)
	return start, size
}

// bcTransfer is one (src, dst) message of the boundary-condition
// exchange: parent cells read at src, halo cells written at dst.
type bcTransfer struct {
	src, dst int      // world ranks
	pcells   [][2]int // parent global cells, in message order
	hcells   [][2]int // child halo cells (child-global), in message order
}

// haloRing enumerates the child's halo-ring cells in canonical order.
func haloRing(c *nest.Domain) [][2]int {
	var out [][2]int
	for x := -1; x <= c.NX; x++ {
		out = append(out, [2]int{x, -1}, [2]int{x, c.NY})
	}
	for y := 0; y < c.NY; y++ {
		out = append(out, [2]int{-1, y}, [2]int{c.NX, y})
	}
	return out
}

// bcPlan indexes a nest's BC transfer pattern by world rank, so each
// rank walks only its own sends and receives instead of scanning the
// full pattern (which is O(world) per rank per step at scale). Both
// lists preserve global pattern order, so per-rank message order — and
// therefore every virtual clock — is identical to a filtered scan of
// the full pattern.
type bcPlan struct {
	send [][]*bcTransfer // by world rank: transfers sourced there (incl. self)
	recv [][]*bcTransfer // by world rank: remote transfers received there
}

// newBCPlan indexes pattern by rank.
func newBCPlan(pattern []*bcTransfer, nranks int) *bcPlan {
	p := &bcPlan{
		send: make([][]*bcTransfer, nranks),
		recv: make([][]*bcTransfer, nranks),
	}
	for _, tr := range pattern {
		p.send[tr.src] = append(p.send[tr.src], tr)
		if tr.dst != tr.src {
			p.recv[tr.dst] = append(p.recv[tr.dst], tr)
		}
	}
	return p
}

// bcPattern computes the full deterministic BC exchange pattern of one
// nest: which world rank sends which parent cells to which world rank.
// It depends only on the domain geometry and process grids, so Run
// builds it once (indexed by rank, see bcPlan) and shares it read-only
// across ranks.
func bcPattern(cfg *nest.Domain, grid vtopo.Grid, c *nest.Domain, cgrid vtopo.Grid, cworld []int) []*bcTransfer {
	byPair := map[[2]int]*bcTransfer{}
	var order [][2]int
	for _, hc := range haloRing(c) {
		hx, hy := hc[0], hc[1]
		// Owning child rank: the tile adjacent to the halo cell.
		ox := clampInt(hx, 0, c.NX-1)
		oy := clampInt(hy, 0, c.NY-1)
		childLocal := ownerOf(c.NX, c.NY, cgrid, ox, oy)
		dst := cworld[childLocal]
		// Parent cell supplying the value.
		pgx := clampInt(c.OffX+floorDiv(hx, c.Ratio), 0, cfg.NX-1)
		pgy := clampInt(c.OffY+floorDiv(hy, c.Ratio), 0, cfg.NY-1)
		src := ownerOf(cfg.NX, cfg.NY, grid, pgx, pgy)
		key := [2]int{src, dst}
		tr, ok := byPair[key]
		if !ok {
			tr = &bcTransfer{src: src, dst: dst}
			byPair[key] = tr
			order = append(order, key)
		}
		tr.pcells = append(tr.pcells, [2]int{pgx, pgy})
		tr.hcells = append(tr.hcells, [2]int{hx, hy})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})
	out := make([]*bcTransfer, len(order))
	for i, k := range order {
		out[i] = byPair[k]
	}
	return out
}

// exchangeBC moves parent boundary values to the nest's halo owners and
// stores them in nc.bc (cleared first). Every rank participates as a
// potential sender; only nest members receive.
//
// It walks the plan cached on the nest context (built once in Run) and
// moves payloads through the pooled owned-send path, so a steady-state
// coupling step performs no allocations; reference_test.go keeps the
// recompute-and-copy variant as the oracle.
func exchangeBC(world *mpi.Comm, parent *solver.Tile, nc *nestCtx) error {
	if nc.tracer.Recording() {
		sp := nc.tracer.Start(nc.span, "bc:"+nc.d.Name, telemetry.LayerPhase)
		defer sp.End()
	}
	me := world.Rank()
	sends, recvs := nc.bcPlan.send[me], nc.bcPlan.recv[me]
	tag := tagBC + nc.idx

	if nc.tile != nil {
		nc.bc = nc.bc[:0]
	}

	// Post sends (and handle self-transfers locally).
	for _, tr := range sends {
		n := 3 * len(tr.pcells)
		data := world.AllocPayload(n)
		for i, pc := range tr.pcells {
			data[3*i], data[3*i+1], data[3*i+2] = parent.Cell(pc[0]-parent.X0, pc[1]-parent.Y0)
		}
		if tr.dst == me {
			storeBC(nc, tr, data)
			world.FreePayload(data)
			continue
		}
		world.SendOwned(tr.dst, tag, data)
	}
	// Receive in deterministic pattern order.
	for _, tr := range recvs {
		data, err := world.Recv(tr.src, tag)
		if err != nil {
			return err
		}
		if len(data) != 3*len(tr.pcells) {
			return fmt.Errorf("wrfsim: BC payload %d for %d cells", len(data), len(tr.pcells))
		}
		storeBC(nc, tr, data)
		world.FreePayload(data)
	}
	return nil
}

// storeBC appends received boundary values as local halo cells of the
// receiving rank's nest tile.
func storeBC(nc *nestCtx, tr *bcTransfer, data []float64) {
	t := nc.tile
	for i, hc := range tr.hcells {
		nc.bc = append(nc.bc, bcCell{
			lx: hc[0] - t.X0,
			ly: hc[1] - t.Y0,
			h:  data[3*i],
			hu: data[3*i+1],
			hv: data[3*i+2],
		})
	}
}

// fbEntry is one parent cell's feedback contribution from one child
// rank: the intersection of the child-cell block with that rank's tile.
// The message carries the raw child cells of the rectangle (row-major,
// 3 values per cell) rather than a partial sum, so the parent owner can
// accumulate every block in one canonical order — the property that
// makes feedback, and therefore the whole functional run, bit-identical
// across process decompositions.
type fbEntry struct {
	pcell  [2]int // parent global cell
	x0, y0 int    // child-global intersection origin
	w, h   int
	off    int // float offset of this entry's cells in the transfer payload
}

// fbTransfer is one (src, dst) message of the feedback exchange.
type fbTransfer struct {
	src, dst int
	entries  []fbEntry
	floats   int // payload length: 3 * total cells
	slot     int // index in dst's inbox (the per-rank payload stash)
}

// fbCellRef locates one child cell's (h, hu, hv) triple inside the
// step's received payloads: the destination rank's inbox slot and the
// float offset within that payload. Slots are per destination rank, so
// a rank's stash is sized by its own inbox, not the nest's global
// transfer count — the latter made per-rank stash memory O(world) and
// the whole run O(world²) at startup.
type fbCellRef struct {
	slot int32
	off  int32
}

// fbOwnedCell is the accumulation recipe for one parent cell owned by
// this rank: its child-block cells in canonical (child-global
// row-major) order, pre-resolved to payload positions.
type fbOwnedCell struct {
	lx, ly int     // parent-local coordinates
	n      float64 // block cell count (the averaging denominator)
	srcs   []fbCellRef
}

// fbPlan is the complete precomputed feedback exchange of one nest:
// the deterministic transfer pattern plus every rank's canonical
// accumulation recipe. It depends only on the domain geometry and
// process grids, so Run builds it once and shares it read-only across
// ranks (per-step payload stashes live on the rank's nestCtx).
type fbPlan struct {
	transfers   []*fbTransfer
	ownedByRank [][]fbOwnedCell // indexed by parent world rank
	// Per-rank indexes over transfers, in global pattern order (so
	// per-rank message order matches a filtered scan of transfers):
	// sendByRank includes self-transfers, recvByRank excludes them, and
	// inboxLen is each rank's stash size (slots cover both).
	sendByRank [][]*fbTransfer
	recvByRank [][]*fbTransfer
	inboxLen   []int
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
	a.p0 = ownerIdx(pn, pparts, off)
	a.cells = make([]int, ownerIdx(pn, pparts, off+f-1)-a.p0+1)
	for i := 0; i < f; i++ {
		o := ownerIdx(pn, pparts, off+i)
		start, _ := span(pn, pparts, o)
		a.owner[i], a.local[i] = o, off+i-start
		a.cells[o-a.p0]++
		a.lo[i] = ownerIdx(cn, cparts, i*ratio)
		a.hi[i] = ownerIdx(cn, cparts, min((i+1)*ratio, cn)-1)
		a.overlaps += a.hi[i] - a.lo[i] + 1
	}
	for r := 0; r < cparts; r++ {
		start, size := span(cn, cparts, r)
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
// linear in what the plan holds: the transfers are enumerated up front
// from the per-axis tables (child tile r feeds exactly the rectangle of
// parent ranks its footprint touches), so one pass over the footprint
// fills every entry and every accumulation recipe by index arithmetic,
// and all entries, recipes and per-rank lists are carved from per-plan
// slabs. reference_test.go keeps the scan-every-tile builder this
// replaced as the oracle.
func buildFBPlan(cfg *nest.Domain, grid vtopo.Grid, c *nest.Domain, cgrid vtopo.Grid, cworld []int) *fbPlan {
	ratio := c.Ratio
	ax := newFBAxis(cfg.NX, grid.Px, c.OffX, c.NX, cgrid.Px, ratio)
	ay := newFBAxis(cfg.NY, grid.Py, c.OffY, c.NY, cgrid.Py, ratio)

	// Transfers of child tile r start at tbase[r], ordered by ascending
	// destination rank; each gets its exact entry capacity.
	tbase := make([]int, cgrid.Size()+1)
	for r := range tbase[1:] {
		rx, ry := cgrid.Coord(r)
		tbase[r+1] = tbase[r] + ax.nd[rx]*ay.nd[ry]
	}
	trs := make([]fbTransfer, tbase[cgrid.Size()])
	entries := make([]fbEntry, ax.overlaps*ay.overlaps)
	for r := 0; r < cgrid.Size(); r++ {
		rx, ry := cgrid.Coord(r)
		i := tbase[r]
		for ky := 0; ky < ay.nd[ry]; ky++ {
			ny := ay.fed(ry, ay.d0[ry]+ky, ratio)
			for kx := 0; kx < ax.nd[rx]; kx++ {
				n := ny * ax.fed(rx, ax.d0[rx]+kx, ratio)
				trs[i] = fbTransfer{src: cworld[r], dst: grid.Rank(ax.d0[rx]+kx, ay.d0[ry]+ky)}
				trs[i].entries, entries = entries[:0:n], entries[n:]
				i++
			}
		}
	}
	nranks := grid.Size()
	plan := &fbPlan{
		transfers:   make([]*fbTransfer, len(trs)),
		ownedByRank: make([][]fbOwnedCell, nranks),
		sendByRank:  make([][]*fbTransfer, nranks),
		recvByRank:  make([][]*fbTransfer, nranks),
		inboxLen:    make([]int, nranks),
	}
	for i := range trs {
		plan.transfers[i] = &trs[i]
	}
	sort.Slice(plan.transfers, func(i, j int) bool {
		a, b := plan.transfers[i], plan.transfers[j]
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	// Per-rank indexes: a rank's sends are one run of the sorted list;
	// its receives (self-transfers excluded) are carved from one slab.
	for _, tr := range plan.transfers {
		tr.slot = plan.inboxLen[tr.dst]
		plan.inboxLen[tr.dst]++
	}
	recvSlab := make([]*fbTransfer, len(trs))
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

	// Accumulation recipes: each parent rank's owned footprint cells, in
	// footprint row-major order, with every block's child cells in
	// child-global row-major order regardless of how the nest is
	// decomposed.
	ownedSlab := make([]fbOwnedCell, len(ax.owner)*len(ay.owner))
	for ky, ny := range ay.cells {
		for kx, nx := range ax.cells {
			r := grid.Rank(ax.p0+kx, ay.p0+ky)
			plan.ownedByRank[r], ownedSlab = ownedSlab[:0:nx*ny], ownedSlab[nx*ny:]
		}
	}
	arena := make([]fbCellRef, c.NX*c.NY)
	for fy := range ay.owner {
		by0 := fy * ratio
		by1 := min(by0+ratio, c.NY)
		for fx := range ax.owner {
			bx0 := fx * ratio
			bx1 := min(bx0+ratio, c.NX)
			bw := bx1 - bx0
			n := bw * (by1 - by0)
			var srcs []fbCellRef
			srcs, arena = arena[:n:n], arena[n:]
			for ry := ay.lo[fy]; ry <= ay.hi[fy]; ry++ {
				iy0, iy1 := max(by0, ay.t0[ry]), min(by1, ay.t1[ry])
				for rx := ax.lo[fx]; rx <= ax.hi[fx]; rx++ {
					ix0, ix1 := max(bx0, ax.t0[rx]), min(bx1, ax.t1[rx])
					tr := &trs[tbase[cgrid.Rank(rx, ry)]+(ay.owner[fy]-ay.d0[ry])*ax.nd[rx]+ax.owner[fx]-ax.d0[rx]]
					w, off := ix1-ix0, tr.floats
					tr.entries = append(tr.entries, fbEntry{
						pcell: [2]int{c.OffX + fx, c.OffY + fy},
						x0:    ix0, y0: iy0, w: w, h: iy1 - iy0,
						off: off,
					})
					tr.floats += 3 * w * (iy1 - iy0)
					for y := iy0; y < iy1; y++ {
						row := srcs[(y-by0)*bw+ix0-bx0:]
						for x := 0; x < w; x++ {
							row[x] = fbCellRef{slot: int32(tr.slot), off: int32(off)}
							off += 3
						}
					}
				}
			}
			owner := grid.Rank(ax.owner[fx], ay.owner[fy])
			plan.ownedByRank[owner] = append(plan.ownedByRank[owner], fbOwnedCell{
				lx: ax.local[fx], ly: ay.local[fy],
				n:    float64(n),
				srcs: srcs,
			})
		}
	}
	return plan
}

// exchangeFeedback averages each nest's solution back onto the parent
// cells it overlaps: child owners send their cells of each block, and
// the parent owner accumulates every block in canonical child-global
// row-major order before normalizing. It follows the plan cached on the
// nest context, with nc.fbPayloads as this rank's inbox stash (one slot
// per incoming transfer, including self-transfers) and pooled payload
// buffers; reference_test.go keeps the rebuild-and-copy variant as the
// oracle.
func exchangeFeedback(world *mpi.Comm, parent *solver.Tile, nc *nestCtx) error {
	if nc.tracer.Recording() {
		sp := nc.tracer.Start(nc.span, "fb:"+nc.d.Name, telemetry.LayerPhase)
		defer sp.End()
	}
	tag := tagFeedback + nc.idx
	plan, payloads := nc.fbPlan, nc.fbPayloads
	me := world.Rank()
	t := nc.tile

	// Sends (self-transfers stash their payload directly).
	for _, tr := range plan.sendByRank[me] {
		buf := world.AllocPayload(tr.floats)
		k := 0
		for _, e := range tr.entries {
			for y := e.y0; y < e.y0+e.h; y++ {
				for x := e.x0; x < e.x0+e.w; x++ {
					buf[k], buf[k+1], buf[k+2] = t.Cell(x-t.X0, y-t.Y0)
					k += 3
				}
			}
		}
		if tr.dst == me {
			payloads[tr.slot] = buf
			continue
		}
		world.SendOwned(tr.dst, tag, buf)
	}
	// Receive in deterministic pattern order.
	for _, tr := range plan.recvByRank[me] {
		data, err := world.Recv(tr.src, tag)
		if err != nil {
			return err
		}
		if len(data) != tr.floats {
			return fmt.Errorf("wrfsim: feedback payload %d floats, want %d", len(data), tr.floats)
		}
		payloads[tr.slot] = data
	}

	// Canonical accumulation into the owned parent cells.
	owned := plan.ownedByRank[me]
	for i := range owned {
		oc := &owned[i]
		var h, hu, hv float64
		for _, ref := range oc.srcs {
			p := payloads[ref.slot]
			h += p[ref.off]
			hu += p[ref.off+1]
			hv += p[ref.off+2]
		}
		parent.SetHaloCell(oc.lx, oc.ly, h/oc.n, hu/oc.n, hv/oc.n)
	}

	// Recycle the step's payloads.
	for i, b := range payloads {
		if b == nil {
			continue
		}
		world.FreePayload(b)
		payloads[i] = nil
	}
	return nil
}

// collectStates gathers the parent and all nest states at world rank 0.
func collectStates(world *mpi.Comm, grid vtopo.Grid, parent *solver.Tile, nests []*nestCtx, out *Output) error {
	st, err := solver.Gather(world, parent)
	if err != nil {
		return err
	}
	if st != nil {
		out.Parent = st
	}
	for i, nc := range nests {
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
					world.Send(0, tag, encodeState(sub))
				}
			}
		}
		if world.Rank() == 0 && nc.world[0] != 0 {
			data, err := world.Recv(nc.world[0], tag)
			if err != nil {
				return err
			}
			out.Nests[i] = decodeState(data)
		}
	}
	return nil
}

func encodeState(s *solver.State) []float64 {
	out := make([]float64, 0, 2+3*len(s.H))
	out = append(out, float64(s.NX), float64(s.NY))
	out = append(out, s.H...)
	out = append(out, s.HU...)
	out = append(out, s.HV...)
	return out
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

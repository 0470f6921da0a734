package wrfsim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/solver"
	"nestwrf/internal/vtopo"
	"nestwrf/internal/workload"
)

// refBuildFBPlan is the test-only oracle for buildFBPlan: the builder as
// it stood before the linear rewrite. For every parent footprint cell it
// scans all child tiles for the ones overlapping the cell's block, keys
// transfers and rectangles by Go maps, resolves each target cell through
// solver.Owner and the rectangle map, and allocates one srcs slice per
// cell. It shares only the types and solver's decomposition with the fast
// builder, so reflect.DeepEqual plans check the per-axis tables, the
// transfer enumeration, the indexer and every slab offset at once.
func refBuildFBPlan(cfg *nest.Domain, grid vtopo.Grid, c *nest.Domain, cgrid vtopo.Grid, cworld []int) *couplingPlan {
	byPair := map[[2]int]*transfer{}
	var order [][2]int
	// Child tile rectangles by nest-local rank.
	tiles := make([][4]int, cgrid.Size())
	for r := range tiles {
		x0, y0, w, h := solver.Decompose(c.NX, c.NY, cgrid, r)
		tiles[r] = [4]int{x0, y0, w, h}
	}
	// rectRef remembers where the rectangle of (parent cell, child world
	// rank) landed, for resolving the targets below.
	type rectKey struct{ px, py, src int }
	type rectLoc struct {
		pair [2]int
		ri   int
	}
	rectRef := map[rectKey]rectLoc{}
	for py := c.OffY; py < c.OffY+c.FootprintY(); py++ {
		for px := c.OffX; px < c.OffX+c.FootprintX(); px++ {
			dst := solver.Owner(cfg.NX, cfg.NY, grid, px, py)
			// Child-cell block of this parent cell.
			bx0 := (px - c.OffX) * c.Ratio
			by0 := (py - c.OffY) * c.Ratio
			bx1 := min(bx0+c.Ratio, c.NX)
			by1 := min(by0+c.Ratio, c.NY)
			for r, tl := range tiles {
				ix0 := max(bx0, tl[0])
				iy0 := max(by0, tl[1])
				ix1 := min(bx1, tl[0]+tl[2])
				iy1 := min(by1, tl[1]+tl[3])
				if ix0 >= ix1 || iy0 >= iy1 {
					continue
				}
				src := cworld[r]
				key := [2]int{src, dst}
				tr, ok := byPair[key]
				if !ok {
					tr = &transfer{src: src, dst: dst}
					byPair[key] = tr
					order = append(order, key)
				}
				rectRef[rectKey{px, py, src}] = rectLoc{pair: key, ri: len(tr.rects)}
				tr.rects = append(tr.rects, rect{x0: ix0, y0: iy0, w: ix1 - ix0, h: iy1 - iy0})
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})
	nranks := grid.Size()
	plan := &couplingPlan{
		transfers:  make([]*transfer, len(order)),
		sendByRank: make([][]*transfer, nranks),
		recvByRank: make([][]*transfer, nranks),
		inboxLen:   make([]int, nranks),
		targets:    make([][]target, nranks),
	}
	offs := map[[2]int][]int{} // each rectangle's float offset in its payload
	for i, k := range order {
		tr := byPair[k]
		tr.slot = plan.inboxLen[tr.dst]
		plan.inboxLen[tr.dst]++
		plan.sendByRank[tr.src] = append(plan.sendByRank[tr.src], tr)
		if tr.dst != tr.src {
			plan.recvByRank[tr.dst] = append(plan.recvByRank[tr.dst], tr)
		}
		for _, r := range tr.rects {
			offs[k] = append(offs[k], tr.floats)
			tr.floats += 3 * r.w * r.h
		}
		plan.transfers[i] = tr
	}

	// Targets per owning parent rank: each block's cells in child-global
	// row-major order, regardless of how the nest is decomposed. One pass
	// over the footprint fills every rank's list.
	origins := make([][2]int, grid.Size())
	for r := range origins {
		x0, y0, _, _ := solver.Decompose(cfg.NX, cfg.NY, grid, r)
		origins[r] = [2]int{x0, y0}
	}
	for py := c.OffY; py < c.OffY+c.FootprintY(); py++ {
		for px := c.OffX; px < c.OffX+c.FootprintX(); px++ {
			owner := solver.Owner(cfg.NX, cfg.NY, grid, px, py)
			bx0 := (px - c.OffX) * c.Ratio
			by0 := (py - c.OffY) * c.Ratio
			bx1 := min(bx0+c.Ratio, c.NX)
			by1 := min(by0+c.Ratio, c.NY)
			srcs := make([]cellRef, 0, (bx1-bx0)*(by1-by0))
			for cy := by0; cy < by1; cy++ {
				for cx := bx0; cx < bx1; cx++ {
					src := cworld[solver.Owner(c.NX, c.NY, cgrid, cx, cy)]
					loc := rectRef[rectKey{px, py, src}]
					tr := byPair[loc.pair]
					e := &tr.rects[loc.ri]
					off := offs[loc.pair][loc.ri] + 3*((cy-e.y0)*e.w+(cx-e.x0))
					srcs = append(srcs, cellRef{slot: int32(tr.slot), off: int32(off)})
				}
			}
			plan.targets[owner] = append(plan.targets[owner], target{
				lx: px - origins[owner][0], ly: py - origins[owner][1],
				srcs: srcs,
			})
		}
	}
	return plan
}

// refBCTransfer is one (src, dst) message of the oracle's boundary-
// condition pattern: parent cells read at src, halo cells written at
// dst, in message order.
type refBCTransfer struct {
	src, dst int      // world ranks
	pcells   [][2]int // parent global cells
	hcells   [][2]int // child halo cells (child-global)
}

// refBCPattern is the test-only oracle for buildBCPlan's transfers: the
// full BC exchange pattern of one nest as it stood before the shared
// plan, keyed by a Go map in halo-ring order and sorted by (src, dst).
func refBCPattern(cfg *nest.Domain, grid vtopo.Grid, c *nest.Domain, cgrid vtopo.Grid, cworld []int) []*refBCTransfer {
	byPair := map[[2]int]*refBCTransfer{}
	var order [][2]int
	for _, hc := range haloRing(c) {
		hx, hy := hc[0], hc[1]
		// Owning child rank: the tile adjacent to the halo cell.
		ox := clampInt(hx, 0, c.NX-1)
		oy := clampInt(hy, 0, c.NY-1)
		childLocal := solver.Owner(c.NX, c.NY, cgrid, ox, oy)
		dst := cworld[childLocal]
		// Parent cell supplying the value.
		pgx := clampInt(c.OffX+floorDiv(hx, c.Ratio), 0, cfg.NX-1)
		pgy := clampInt(c.OffY+floorDiv(hy, c.Ratio), 0, cfg.NY-1)
		src := solver.Owner(cfg.NX, cfg.NY, grid, pgx, pgy)
		key := [2]int{src, dst}
		tr, ok := byPair[key]
		if !ok {
			tr = &refBCTransfer{src: src, dst: dst}
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
	out := make([]*refBCTransfer, len(order))
	for i, k := range order {
		out[i] = byPair[k]
	}
	return out
}

// refIndexBC is the oracle's per-rank index over refBCPattern: each
// rank's sends (self-transfers included) and remote receives, appended
// in pattern order.
func refIndexBC(pattern []*refBCTransfer, nranks int) (send, recv [][]*refBCTransfer) {
	send = make([][]*refBCTransfer, nranks)
	recv = make([][]*refBCTransfer, nranks)
	for _, tr := range pattern {
		send[tr.src] = append(send[tr.src], tr)
		if tr.dst != tr.src {
			recv[tr.dst] = append(recv[tr.dst], tr)
		}
	}
	return send, recv
}

// planCase is one (domain tree, rank count) geometry of the oracle sweep.
type planCase struct {
	name  string
	cfg   *nest.Domain
	ranks []int
	grid  *vtopo.Grid // an extra, explicitly shaped parent grid
}

// A rank's nest-local index is arithmetic on the nest's rectangle. The
// oracle is the per-nest table Run once kept (world rank -> position in
// the nest's world list, -1 outside the nest), and under Sequential the
// identity list every nest shared: the rectangle is the whole grid.
func TestNestLocalMatchesRankTable(t *testing.T) {
	cfg := workload.Table2Config()
	for _, ranks := range []int{32, 512, 2048} {
		grid, err := machine.GridFor(ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{Sequential, Concurrent} {
			plans, err := nestPlans(cfg, grid, Options{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			for _, np := range plans {
				table := make([]int, ranks)
				for r := range table {
					table[r] = -1
				}
				for l, wr := range np.world {
					table[wr] = l
				}
				for r, want := range table {
					if s == Sequential && want != r {
						t.Fatalf("%d ranks sequential %s: world rank %d at local %d, want the identity", ranks, np.d.Name, r, want)
					}
					if got := np.local(grid, r); got != want {
						t.Fatalf("%d ranks strategy=%d %s: local(%d) = %d, want %d", ranks, s, np.d.Name, r, got, want)
					}
				}
			}
		}
	}
}

// The linear plan builder must produce exactly the plan of the retained
// scan-every-tile builder — transfers, rectangle order, slots, targets
// and their payload offsets, per-rank indexes and inbox sizes — on every geometry that
// changes a code path: the paper's Table 2 at scale, ratios that do not
// divide the nest, 1xN and Nx1 process grids, nests on the parent's
// edges, single-cell and empty tiles, and both strategies' nest grids.
func TestBuildFBPlanMatchesReference(t *testing.T) {
	edge := nest.Root("parent", 40, 30)
	edge.AddChild("sw", 30, 20, 2, 0, 0)
	edge.AddChild("ne", 31, 23, 3, 29, 22) // footprint ends on the parent's far corner
	ragged := func(ratio int) *nest.Domain {
		d := nest.Root("parent", 37, 29)
		d.AddChild("a", 8*ratio+1, 5*ratio+ratio-1, ratio, 3, 2)
		d.AddChild("b", 4*ratio+2, 6*ratio+1, ratio, 20, 11)
		return d
	}
	tiny := nest.Root("parent", 12, 9)
	tiny.AddChild("n", 7, 5, 3, 2, 1)
	cases := []planCase{
		{name: "table2", cfg: workload.Table2Config(), ranks: []int{32, 512, 2048}},
		{name: "ratio2", cfg: ragged(2), ranks: []int{1, 6, 24}},
		{name: "ratio3", cfg: ragged(3), ranks: []int{4, 12, 35}},
		{name: "ratio5", cfg: ragged(5), ranks: []int{2, 9, 30}},
		{name: "edge", cfg: edge, ranks: []int{1, 8, 48}},
		{name: "1xN", cfg: ragged(3), grid: &vtopo.Grid{Px: 1, Py: 7}},
		{name: "Nx1", cfg: ragged(3), grid: &vtopo.Grid{Px: 9, Py: 1}},
		{name: "single-cell-tiles", cfg: tiny, grid: &vtopo.Grid{Px: 7, Py: 5}},
		// More parts than nest cells: Run builds the plans before the
		// empty tiles are rejected, so the builder must cope.
		{name: "empty-tiles", cfg: tiny, grid: &vtopo.Grid{Px: 9, Py: 6}},
	}
	if testing.Short() {
		cases[0].ranks = []int{32, 512}
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var grids []vtopo.Grid
		for _, n := range tc.ranks {
			g, err := machine.GridFor(n)
			if err != nil {
				t.Fatal(err)
			}
			grids = append(grids, g)
		}
		if tc.grid != nil {
			grids = append(grids, *tc.grid)
		}
		for _, grid := range grids {
			for _, s := range []Strategy{Sequential, Concurrent} {
				if s == Concurrent && grid.Size() < len(tc.cfg.Children) {
					continue // fewer ranks than siblings: nothing to partition
				}
				plans, err := nestPlans(tc.cfg, grid, Options{Strategy: s})
				if err != nil {
					t.Fatal(err)
				}
				for _, np := range plans {
					label := fmt.Sprintf("%s %dx%d strategy=%d nest=%s", tc.name, grid.Px, grid.Py, s, np.d.Name)
					comparePlans(t, label, np.fb, refBuildFBPlan(tc.cfg, grid, np.d, np.grid, np.world))
				}
			}
		}
	}
}

// comparePlans asserts exact plan equality and stops at the first
// plan that differs, naming the first field and index that do.
func comparePlans(t *testing.T, label string, got, want *couplingPlan) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got.transfers) != len(want.transfers) {
		t.Fatalf("%s: %d transfers, want %d", label, len(got.transfers), len(want.transfers))
	}
	for i := range got.transfers {
		if !reflect.DeepEqual(got.transfers[i], want.transfers[i]) {
			t.Fatalf("%s: transfer %d = %+v, want %+v", label, i, *got.transfers[i], *want.transfers[i])
		}
	}
	for r := range got.targets {
		g, w := got.targets[r], want.targets[r]
		if len(g) != len(w) || (g == nil) != (w == nil) {
			t.Fatalf("%s: targets[%d] has %d cells (nil=%v), want %d (nil=%v)", label, r, len(g), g == nil, len(w), w == nil)
		}
		for i := range g {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Fatalf("%s: targets[%d][%d] = %+v, want %+v", label, r, i, g[i], w[i])
			}
		}
	}
	for r := range got.inboxLen {
		if got.inboxLen[r] != want.inboxLen[r] {
			t.Fatalf("%s: inboxLen[%d] = %d, want %d", label, r, got.inboxLen[r], want.inboxLen[r])
		}
		if !reflect.DeepEqual(got.sendByRank[r], want.sendByRank[r]) {
			t.Fatalf("%s: sendByRank[%d] differs (%d transfers, want %d)", label, r, len(got.sendByRank[r]), len(want.sendByRank[r]))
		}
		if !reflect.DeepEqual(got.recvByRank[r], want.recvByRank[r]) {
			t.Fatalf("%s: recvByRank[%d] differs (%d transfers, want %d)", label, r, len(got.recvByRank[r]), len(want.recvByRank[r]))
		}
	}
	t.Fatalf("%s: plans differ outside the compared fields", label)
}

// The shared BC plan must move exactly the oracle's pattern: on the
// paper's Table 2 domain at 32, 512 and 2048 ranks under both
// strategies, every rank sends to the same ranks in the same order,
// each payload carries the same parent cells (duplicates included) in
// the same order, receives come from the same ranks in the same order,
// and each of the rank's halo-ring cells is written from the same
// sender's payload position as the oracle stores it from.
func TestBCPlanMatchesReference(t *testing.T) {
	cfg := workload.Table2Config()
	ranks := []int{32, 512, 2048}
	if testing.Short() {
		ranks = ranks[:2]
	}
	for _, n := range ranks {
		grid, err := machine.GridFor(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{Sequential, Concurrent} {
			plans, err := nestPlans(cfg, grid, Options{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			for _, np := range plans {
				label := fmt.Sprintf("%d ranks strategy=%d nest=%s", n, s, np.d.Name)
				compareBCPlan(t, label, cfg, grid, np)
			}
		}
	}
}

// compareBCPlan holds np's BC plan to the oracle's pattern, rank by
// rank, and stops at the first difference.
func compareBCPlan(t *testing.T, label string, cfg *nest.Domain, grid vtopo.Grid, np *nestPlan) {
	t.Helper()
	c, p := np.d, np.bc
	pattern := refBCPattern(cfg, grid, c, np.grid, np.world)
	refSend, refRecv := refIndexBC(pattern, grid.Size())
	// The oracle's source of each halo-ring cell: sending rank and cell
	// index in its payload.
	type source struct{ src, i int }
	want := map[[2]int]source{}
	cellsTo := make([]int, grid.Size())
	for _, tr := range pattern {
		for i, hc := range tr.hcells {
			want[hc] = source{tr.src, i}
		}
		cellsTo[tr.dst] += len(tr.hcells)
	}
	for r := 0; r < grid.Size(); r++ {
		if len(p.sendByRank[r]) != len(refSend[r]) {
			t.Fatalf("%s: rank %d sends %d payloads, want %d", label, r, len(p.sendByRank[r]), len(refSend[r]))
		}
		for i, tr := range p.sendByRank[r] {
			ref := refSend[r][i]
			if tr.src != r || tr.dst != ref.dst || len(tr.rects) != len(ref.pcells) || tr.floats != 3*len(ref.pcells) {
				t.Fatalf("%s: rank %d send %d goes %d->%d with %d cells (%d floats), want %d->%d with %d",
					label, r, i, tr.src, tr.dst, len(tr.rects), tr.floats, ref.src, ref.dst, len(ref.pcells))
			}
			for k, pc := range ref.pcells {
				if got := tr.rects[k]; got != (rect{pc[0], pc[1], 1, 1}) {
					t.Fatalf("%s: rank %d send %d cell %d is %+v, want parent cell %v", label, r, i, k, got, pc)
				}
			}
		}
		if len(p.recvByRank[r]) != len(refRecv[r]) {
			t.Fatalf("%s: rank %d receives %d payloads, want %d", label, r, len(p.recvByRank[r]), len(refRecv[r]))
		}
		bySlot := make([]*transfer, p.inboxLen[r])
		for i, tr := range p.recvByRank[r] {
			if tr.src != refRecv[r][i].src || tr.dst != r {
				t.Fatalf("%s: rank %d receive %d is %d->%d, want %d->%d", label, r, i, tr.src, tr.dst, refRecv[r][i].src, r)
			}
			bySlot[tr.slot] = tr
		}
		for _, tr := range p.sendByRank[r] {
			if tr.dst == r {
				bySlot[tr.slot] = tr
			}
		}
		if len(p.targets[r]) != cellsTo[r] {
			t.Fatalf("%s: rank %d writes %d halo cells, want %d", label, r, len(p.targets[r]), cellsTo[r])
		}
		if cellsTo[r] == 0 {
			continue
		}
		x0, y0, _, _ := solver.Decompose(c.NX, c.NY, np.grid, np.local(grid, r))
		for _, tg := range p.targets[r] {
			hc := [2]int{tg.lx + x0, tg.ly + y0}
			w, ok := want[hc]
			if !ok || len(tg.srcs) != 1 {
				t.Fatalf("%s: rank %d writes halo cell %v from %d values (on the ring: %v)", label, r, hc, len(tg.srcs), ok)
			}
			ref := tg.srcs[0]
			tr := bySlot[ref.slot]
			if ref.off%3 != 0 || tr == nil || tr.src != w.src || int(ref.off)/3 != w.i {
				t.Fatalf("%s: rank %d halo cell %v reads slot %d offset %d, want cell %d of rank %d's payload", label, r, hc, ref.slot, ref.off, w.i, w.src)
			}
			delete(want, hc) // each halo cell is written once
		}
	}
	if len(want) != 0 {
		t.Fatalf("%s: %d halo-ring cells written by no rank", label, len(want))
	}
}

// refBCCell is one child halo cell with the parent value the oracle
// received for it.
type refBCCell struct {
	lx, ly    int // local halo coordinates in the child tile
	h, hu, hv float64
}

// refExchangeBC is the test-only oracle for the BC exchange: the
// exchange as it stood before the plan cache. The pattern is recomputed
// and filtered by scanning at every call, payloads are fresh
// allocations, sends copy, and the received values are returned as
// halo cells for refNestSubsteps.
func refExchangeBC(world *mpi.Comm, grid vtopo.Grid, parent *solver.Tile, nc *nestCtx, cfg *nest.Domain) ([]refBCCell, error) {
	me := world.Rank()
	var sends, recvs []*refBCTransfer
	for _, tr := range refBCPattern(cfg, grid, nc.d, nc.grid, nc.world) {
		if tr.src == me {
			sends = append(sends, tr)
		}
		if tr.dst == me && tr.src != me {
			recvs = append(recvs, tr)
		}
	}
	tag := tagBC + nc.idx
	var cells []refBCCell
	store := func(tr *refBCTransfer, data []float64) {
		for i, hc := range tr.hcells {
			cells = append(cells, refBCCell{
				lx: hc[0] - nc.tile.X0, ly: hc[1] - nc.tile.Y0,
				h: data[3*i], hu: data[3*i+1], hv: data[3*i+2],
			})
		}
	}

	// Post sends (and handle self-transfers locally).
	for _, tr := range sends {
		data := make([]float64, 3*len(tr.pcells))
		for i, pc := range tr.pcells {
			parent.Pack(data[3*i:], pc[0]-parent.X0, pc[1]-parent.Y0, 1, 1)
		}
		if tr.dst == me {
			store(tr, data)
			continue
		}
		world.Send(tr.dst, tag, data)
	}
	// Receive in deterministic pattern order.
	for _, tr := range recvs {
		data, err := world.Recv(tr.src, tag)
		if err != nil {
			return nil, err
		}
		if len(data) != 3*len(tr.pcells) {
			return nil, fmt.Errorf("wrfsim: BC payload %d for %d cells", len(data), len(tr.pcells))
		}
		store(tr, data)
	}
	return cells, nil
}

// refNestSubsteps is nestSubsteps with the oracle's stored halo cells
// applied after every halo exchange.
func refNestSubsteps(p *mpi.Proc, nc *nestCtx, bc []refBCCell, opt Options) error {
	p.BeginPhase(nc.phase)
	t := nc.tile
	cells := float64(t.W * t.H)
	for s := 0; s < nc.d.Ratio; s++ {
		if err := t.Exchange(nc.comm, nc.grid); err != nil {
			return err
		}
		for _, b := range bc {
			t.SetHaloCell(b.lx, b.ly, b.h, b.hu, b.hv)
		}
		p.Compute(opt.PointCost * cells)
		t.Step()
	}
	return nil
}

// refExchangeFeedback is the test-only oracle for the feedback exchange
// and apply: the plan is rebuilt (by the scan-every-tile builder above)
// and the inbox stash allocated afresh at every call, payloads are fresh
// allocations, and sends copy.
func refExchangeFeedback(world *mpi.Comm, grid vtopo.Grid, parent *solver.Tile, nc *nestCtx, cfg *nest.Domain) error {
	tag := tagFeedback + nc.idx
	me := world.Rank()
	t := nc.tile
	plan := refBuildFBPlan(cfg, grid, nc.d, nc.grid, nc.world)
	payloads := make([][]float64, plan.inboxLen[me])

	// Sends (self-transfers stash their payload directly).
	for _, tr := range plan.sendByRank[me] {
		buf := make([]float64, tr.floats)
		k := 0
		for _, e := range tr.rects {
			for y := e.y0; y < e.y0+e.h; y++ {
				for x := e.x0; x < e.x0+e.w; x++ {
					k += t.Pack(buf[k:], x-t.X0, y-t.Y0, 1, 1)
				}
			}
		}
		if tr.dst == me {
			payloads[tr.slot] = buf
			continue
		}
		world.Send(tr.dst, tag, buf)
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
	for _, oc := range plan.targets[me] {
		var h, hu, hv float64
		for _, ref := range oc.srcs {
			p := payloads[ref.slot]
			h += p[ref.off]
			hu += p[ref.off+1]
			hv += p[ref.off+2]
		}
		n := float64(len(oc.srcs))
		parent.SetHaloCell(oc.lx, oc.ly, h/n, hu/n, hv/n)
	}
	return nil
}

// The plan-cached, pooled coupling exchange must be bit-identical to the
// rebuild-and-copy oracles over whole coupled steps (parent step, BC,
// nest sub-steps, feedback — the rankMain loop): the same halo-ring
// values on each rank's nest tile after every step's last BC apply, the
// same parent and nest fields, all compared by IEEE-754 bits, and the
// same virtual clock and wait time on every rank. The parent starts at
// rest with momentum -0: along the hill's axes the first parent step
// keeps it, so the first BC carries signed zeros, which a copy through
// 0 + x would turn into +0.
func TestCouplingMatchesReference(t *testing.T) {
	type rankState struct {
		halo, parent, nest []uint64
	}
	const steps = 4
	opt := Options{PointCost: 1e-6}
	negZero := math.Copysign(0, -1)
	// bits appends the IEEE-754 bits of local cell (x, y) of tl.
	bits := func(out []uint64, tl *solver.Tile, x, y int) []uint64 {
		var c [3]float64
		tl.Pack(c[:], x, y, 1, 1)
		return append(out, math.Float64bits(c[0]), math.Float64bits(c[1]), math.Float64bits(c[2]))
	}
	run := func(ref bool) ([]rankState, []*mpi.Proc) {
		states := make([]rankState, 4)
		procs := couplingHarness(t, func(r *couplingRank) error {
			world := r.p.World()
			hill := solver.GaussianHill(r.cfg.NX, r.cfg.NY, 16, 12, 0.4, 4)
			r.parent.Fill(func(gx, gy int) (float64, float64, float64) {
				h, _, _ := hill(gx, gy)
				return h, negZero, negZero
			})
			tl, c := r.nc.tile, r.nc.d
			var halo []uint64
			for s := 0; s < steps; s++ {
				if err := r.parent.Exchange(world, r.grid); err != nil {
					return err
				}
				r.parent.Step()
				if ref {
					bc, err := refExchangeBC(world, r.grid, r.parent, r.nc, r.cfg)
					if err != nil {
						return err
					}
					if err := refNestSubsteps(r.p, r.nc, bc, opt); err != nil {
						return err
					}
				} else {
					if err := r.nc.exchange(world, "bc", tagBC+r.nc.idx, r.nc.bc, r.parent, r.nc.bcInbox); err != nil {
						return err
					}
					if err := nestSubsteps(r.p, r.nc, opt); err != nil {
						return err
					}
				}
				for _, hc := range haloRing(c) {
					ox, oy := clampInt(hc[0], 0, c.NX-1), clampInt(hc[1], 0, c.NY-1)
					if ox >= tl.X0 && ox < tl.X0+tl.W && oy >= tl.Y0 && oy < tl.Y0+tl.H {
						halo = bits(halo, tl, hc[0]-tl.X0, hc[1]-tl.Y0)
					}
				}
				if ref {
					if err := refExchangeFeedback(world, r.grid, r.parent, r.nc, r.cfg); err != nil {
						return err
					}
					continue
				}
				if err := r.nc.exchange(world, "fb", tagFeedback+r.nc.idx, r.nc.fb, tl, r.nc.fbInbox); err != nil {
					return err
				}
				r.nc.applyFeedback(r.parent)
				release(world, r.nc.fbInbox)
			}
			cells := func(tl *solver.Tile) []uint64 {
				out := make([]uint64, 0, 3*tl.W*tl.H)
				for y := 0; y < tl.H; y++ {
					for x := 0; x < tl.W; x++ {
						out = bits(out, tl, x, y)
					}
				}
				return out
			}
			states[world.Rank()] = rankState{halo: halo, parent: cells(r.parent), nest: cells(tl)}
			return nil
		})
		return states, procs
	}
	fast, fastProcs := run(false)
	slow, slowProcs := run(true)
	negZeros := 0
	for r := range fast {
		if len(fast[r].halo) == 0 {
			t.Errorf("rank %d: no halo-ring cells on its nest tile", r)
		}
		for _, b := range fast[r].halo {
			if b == math.Float64bits(negZero) {
				negZeros++
			}
		}
		if !slices.Equal(fast[r].halo, slow[r].halo) {
			t.Errorf("rank %d: halo-ring values differ from the reference coupling", r)
		}
		if !slices.Equal(fast[r].parent, slow[r].parent) || !slices.Equal(fast[r].nest, slow[r].nest) {
			t.Errorf("rank %d: fields differ from the reference coupling", r)
		}
		if fastProcs[r].Clock() != slowProcs[r].Clock() || fastProcs[r].WaitTime() != slowProcs[r].WaitTime() {
			t.Errorf("rank %d: clock/wait (%v, %v) differ from reference (%v, %v)", r,
				fastProcs[r].Clock(), fastProcs[r].WaitTime(), slowProcs[r].Clock(), slowProcs[r].WaitTime())
		}
	}
	if negZeros == 0 {
		t.Error("no -0 reached a halo-ring cell: the bit comparison cannot see a sign-of-zero slip")
	}
}

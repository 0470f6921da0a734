package wrfsim

import (
	"fmt"
	"reflect"
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
// transfers and entries by Go maps, resolves each recipe cell through
// ownerOf and the entry map, and allocates one srcs slice per cell. It
// shares only the types, ownerOf and solver.Decompose with the fast
// builder, so reflect.DeepEqual plans check the per-axis tables, the
// transfer enumeration and every slab offset at once.
func refBuildFBPlan(cfg *nest.Domain, grid vtopo.Grid, c *nest.Domain, cgrid vtopo.Grid, cworld []int) *fbPlan {
	byPair := map[[2]int]*fbTransfer{}
	var order [][2]int
	// Child tile rectangles by nest-local rank.
	tiles := make([][4]int, cgrid.Size())
	for r := range tiles {
		x0, y0, w, h := solver.Decompose(c.NX, c.NY, cgrid, r)
		tiles[r] = [4]int{x0, y0, w, h}
	}
	// entryRef remembers where the entry of (parent cell, child world
	// rank) landed, for resolving the accumulation recipe below.
	type entryKey struct{ px, py, src int }
	type entryLoc struct {
		pair [2]int
		ei   int
	}
	entryRef := map[entryKey]entryLoc{}
	for py := c.OffY; py < c.OffY+c.FootprintY(); py++ {
		for px := c.OffX; px < c.OffX+c.FootprintX(); px++ {
			dst := ownerOf(cfg.NX, cfg.NY, grid, px, py)
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
					tr = &fbTransfer{src: src, dst: dst}
					byPair[key] = tr
					order = append(order, key)
				}
				entryRef[entryKey{px, py, src}] = entryLoc{pair: key, ei: len(tr.entries)}
				tr.entries = append(tr.entries, fbEntry{
					pcell: [2]int{px, py},
					x0:    ix0, y0: iy0, w: ix1 - ix0, h: iy1 - iy0,
				})
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
	plan := &fbPlan{
		transfers:  make([]*fbTransfer, len(order)),
		sendByRank: make([][]*fbTransfer, nranks),
		recvByRank: make([][]*fbTransfer, nranks),
		inboxLen:   make([]int, nranks),
	}
	for i, k := range order {
		tr := byPair[k]
		tr.slot = plan.inboxLen[tr.dst]
		plan.inboxLen[tr.dst]++
		plan.sendByRank[tr.src] = append(plan.sendByRank[tr.src], tr)
		if tr.dst != tr.src {
			plan.recvByRank[tr.dst] = append(plan.recvByRank[tr.dst], tr)
		}
		off := 0
		for ei := range tr.entries {
			tr.entries[ei].off = off
			off += 3 * tr.entries[ei].w * tr.entries[ei].h
		}
		tr.floats = off
		plan.transfers[i] = tr
	}

	// Accumulation recipe per owning parent rank: each block's cells in
	// child-global row-major order, regardless of how the nest is
	// decomposed. One pass over the footprint fills every rank's list.
	plan.ownedByRank = make([][]fbOwnedCell, grid.Size())
	origins := make([][2]int, grid.Size())
	for r := range origins {
		x0, y0, _, _ := solver.Decompose(cfg.NX, cfg.NY, grid, r)
		origins[r] = [2]int{x0, y0}
	}
	for py := c.OffY; py < c.OffY+c.FootprintY(); py++ {
		for px := c.OffX; px < c.OffX+c.FootprintX(); px++ {
			owner := ownerOf(cfg.NX, cfg.NY, grid, px, py)
			bx0 := (px - c.OffX) * c.Ratio
			by0 := (py - c.OffY) * c.Ratio
			bx1 := min(bx0+c.Ratio, c.NX)
			by1 := min(by0+c.Ratio, c.NY)
			srcs := make([]fbCellRef, 0, (bx1-bx0)*(by1-by0))
			for cy := by0; cy < by1; cy++ {
				for cx := bx0; cx < bx1; cx++ {
					src := cworld[ownerOf(c.NX, c.NY, cgrid, cx, cy)]
					loc := entryRef[entryKey{px, py, src}]
					tr := byPair[loc.pair]
					e := &tr.entries[loc.ei]
					off := e.off + 3*((cy-e.y0)*e.w+(cx-e.x0))
					srcs = append(srcs, fbCellRef{slot: int32(tr.slot), off: int32(off)})
				}
			}
			plan.ownedByRank[owner] = append(plan.ownedByRank[owner], fbOwnedCell{
				lx: px - origins[owner][0], ly: py - origins[owner][1],
				n:    float64((bx1 - bx0) * (by1 - by0)),
				srcs: srcs,
			})
		}
	}
	return plan
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
// scan-every-tile builder — transfers, entry order and offsets, slots,
// recipes, per-rank indexes and inbox sizes — on every geometry that
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
					comparePlans(t, label, np.fbPlan, refBuildFBPlan(tc.cfg, grid, np.d, np.grid, np.world))
				}
			}
		}
	}
}

// comparePlans asserts exact plan equality and stops at the first
// plan that differs, naming the first field and index that do.
func comparePlans(t *testing.T, label string, got, want *fbPlan) {
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
	for r := range got.ownedByRank {
		g, w := got.ownedByRank[r], want.ownedByRank[r]
		if len(g) != len(w) || (g == nil) != (w == nil) {
			t.Fatalf("%s: ownedByRank[%d] has %d cells (nil=%v), want %d (nil=%v)", label, r, len(g), g == nil, len(w), w == nil)
		}
		for i := range g {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Fatalf("%s: ownedByRank[%d][%d] = %+v, want %+v", label, r, i, g[i], w[i])
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

// refExchangeBC is the test-only oracle for exchangeBC: the exchange as
// it stood before the plan cache. The pattern is recomputed and filtered
// by scanning at every call, payloads are fresh allocations, and sends
// copy.
func refExchangeBC(world *mpi.Comm, grid vtopo.Grid, parent *solver.Tile, nc *nestCtx, cfg *nest.Domain) error {
	me := world.Rank()
	var sends, recvs []*bcTransfer
	for _, tr := range bcPattern(cfg, grid, nc.d, nc.grid, nc.world) {
		if tr.src == me {
			sends = append(sends, tr)
		}
		if tr.dst == me && tr.src != me {
			recvs = append(recvs, tr)
		}
	}
	tag := tagBC + nc.idx

	if nc.tile != nil {
		nc.bc = nc.bc[:0]
	}

	// Post sends (and handle self-transfers locally).
	for _, tr := range sends {
		data := make([]float64, 3*len(tr.pcells))
		for i, pc := range tr.pcells {
			data[3*i], data[3*i+1], data[3*i+2] = parent.Cell(pc[0]-parent.X0, pc[1]-parent.Y0)
		}
		if tr.dst == me {
			storeBC(nc, tr, data)
			continue
		}
		world.Send(tr.dst, tag, data)
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
	}
	return nil
}

// refExchangeFeedback is the test-only oracle for exchangeFeedback: the
// plan is rebuilt (by the scan-every-tile builder above) and the inbox
// stash allocated afresh at every call, payloads are fresh allocations,
// and sends copy.
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
	return nil
}

// The plan-cached, pooled coupling exchanges must be bit-identical to
// the rebuild-and-copy oracles over whole coupled steps (parent step, BC,
// nest sub-steps, feedback — the rankMain loop): same boundary cells,
// same parent and nest fields, and the same virtual clock and wait time
// on every rank.
func TestCouplingMatchesReference(t *testing.T) {
	type rankState struct {
		bc           []bcCell
		parent, nest []float64
	}
	const steps = 4
	opt := Options{PointCost: 1e-6}
	run := func(ref bool) ([]rankState, []*mpi.Proc) {
		states := make([]rankState, 4)
		procs := couplingHarness(t, func(r *couplingRank) error {
			world := r.p.World()
			for s := 0; s < steps; s++ {
				if err := r.parent.Exchange(world, r.grid); err != nil {
					return err
				}
				r.parent.Step()
				var err error
				if ref {
					err = refExchangeBC(world, r.grid, r.parent, r.nc, r.cfg)
				} else {
					err = exchangeBC(world, r.parent, r.nc)
				}
				if err != nil {
					return err
				}
				if err := nestSubsteps(r.p, r.nc, opt); err != nil {
					return err
				}
				if ref {
					err = refExchangeFeedback(world, r.grid, r.parent, r.nc, r.cfg)
				} else {
					err = exchangeFeedback(world, r.parent, r.nc)
				}
				if err != nil {
					return err
				}
			}
			cells := func(tl *solver.Tile) []float64 {
				out := make([]float64, 0, 3*tl.W*tl.H)
				for y := 0; y < tl.H; y++ {
					for x := 0; x < tl.W; x++ {
						h, hu, hv := tl.Cell(x, y)
						out = append(out, h, hu, hv)
					}
				}
				return out
			}
			states[world.Rank()] = rankState{
				bc:     append([]bcCell(nil), r.nc.bc...),
				parent: cells(r.parent),
				nest:   cells(r.nc.tile),
			}
			return nil
		})
		return states, procs
	}
	fast, fastProcs := run(false)
	slow, slowProcs := run(true)
	for r := range fast {
		if len(fast[r].bc) == 0 {
			t.Errorf("rank %d: no boundary cells stored", r)
		}
		if !reflect.DeepEqual(fast[r], slow[r]) {
			t.Errorf("rank %d: fields or boundary cells differ from the reference coupling", r)
		}
		if fastProcs[r].Clock() != slowProcs[r].Clock() || fastProcs[r].WaitTime() != slowProcs[r].WaitTime() {
			t.Errorf("rank %d: clock/wait (%v, %v) differ from reference (%v, %v)", r,
				fastProcs[r].Clock(), fastProcs[r].WaitTime(), slowProcs[r].Clock(), slowProcs[r].WaitTime())
		}
	}
}

package model

import (
	"runtime"
	"sync"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// definitionCosts is the test-only oracle for the phase kernel: the
// phase as the model defines it, spelled out through pair lists and
// netsim's ad-hoc queries on a fresh network. Under contention every
// placement's NeighborPairs are loaded in both directions (without, the
// network stays idle), then every rank prices the messages to its West,
// East, South and North neighbours with TransferTime and Torus.Hops,
// routing each message again.
func definitionCosts(t *testing.T, m machine.Machine, mp *mapping.Mapping, placements []Placement, contention bool) []StepCost {
	t.Helper()
	net := definitionNet(t, m, mp, placements, contention)
	out := make([]StepCost, len(placements))
	for i, p := range placements {
		local := p.SG.Grid()
		lx, ly := ceilDiv(p.D.NX, local.Px), ceilDiv(p.D.NY, local.Py)
		cost := StepCost{
			Compute: m.PointCost*float64(lx)*float64(ly) + m.StepOverhead,
			Ranks:   local.Size(),
		}
		msgs := float64(m.ExchangesPerStep)
		var commSum, hopSum, hopCnt float64
		for r := 0; r < local.Size(); r++ {
			var commR float64
			src := mp.NodeOf(p.SG.GlobalRank(r))
			for d := vtopo.West; d <= vtopo.North; d++ {
				nb := local.Neighbor(r, d)
				if nb < 0 {
					continue
				}
				dst := mp.NodeOf(p.SG.GlobalRank(nb))
				edge := ly
				if d == vtopo.South || d == vtopo.North {
					edge = lx
				}
				perMsg := float64(edge) * m.BytesPerPoint / msgs
				commR += msgs * net.TransferTime(src, dst, int(perMsg))
				hopSum += float64(mp.Torus.Hops(src, dst))
				hopCnt++
			}
			commSum += commR
			if commR > cost.CommMax {
				cost.CommMax = commR
			}
		}
		cost.CommAvg = commSum / float64(local.Size())
		if hopCnt > 0 {
			cost.HopsAvg = hopSum / hopCnt
		}
		out[i] = cost
	}
	return out
}

// definitionNet returns a fresh network that, under contention, carries
// every placement's NeighborPairs in both directions.
func definitionNet(t *testing.T, m machine.Machine, mp *mapping.Mapping, placements []Placement, contention bool) *netsim.Network {
	t.Helper()
	net, err := netsim.New(mp.Torus, m.Net)
	if err != nil {
		t.Fatal(err)
	}
	if contention {
		for _, p := range placements {
			for _, pr := range p.SG.Grid().NeighborPairs() {
				a, b := mp.NodeOf(p.SG.GlobalRank(pr[0])), mp.NodeOf(p.SG.GlobalRank(pr[1]))
				net.AddFlow(a, b)
				net.AddFlow(b, a)
			}
		}
	}
	return net
}

// kernelCase is a mapping and phases placed on its grid.
type kernelCase struct {
	mp     *mapping.Mapping
	phases [][]Placement
}

// kernelCases returns phases over a 256-rank grid and torus — every
// mapping constructor, sibling rectangles that are offset, one rank
// wide, one rank high and a single rank, the full grid, and narrow
// placements listed before wide ones, so a fresh network's halo window
// grows mid-phase — and over a 13x1 grid, a single row.
func kernelCases(t *testing.T) (machine.Machine, []kernelCase) {
	t.Helper()
	m := machine.BGL()
	g, err := machine.GridFor(256)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := machine.TorusFor(256)
	if err != nil {
		t.Fatal(err)
	}
	row, err := vtopo.NewGrid(13, 1)
	if err != nil {
		t.Fatal(err)
	}
	rowTor := torus.Torus{X: 13, Y: 1, Z: 1}
	halves := []alloc.Rect{{X: 0, Y: 0, W: g.Px / 2, H: g.Py}, {X: g.Px / 2, Y: 0, W: g.Px - g.Px/2, H: g.Py}}
	uneven := []alloc.Rect{
		{X: 0, Y: 0, W: 5, H: g.Py}, {X: 5, Y: 0, W: 1, H: g.Py},
		{X: 6, Y: 0, W: g.Px - 6, H: 1}, {X: 6, Y: 1, W: g.Px - 6, H: g.Py - 1},
	}
	rowSplit := []alloc.Rect{{X: 0, Y: 0, W: 1, H: 1}, {X: 1, Y: 0, W: 5, H: 1}, {X: 6, Y: 0, W: 7, H: 1}}
	root := nest.Root("parent", 286, 307)
	doms := []*nest.Domain{
		root.AddChild("s1", 394, 418, 3, 5, 5),
		root.AddChild("s2", 313, 337, 3, 140, 150),
		root.AddChild("s3", 232, 202, 3, 60, 20),
		root.AddChild("s4", 271, 250, 3, 20, 200),
	}
	place := func(g vtopo.Grid, rects []alloc.Rect) []Placement {
		var ps []Placement
		for i, r := range rects {
			sg, err := vtopo.NewSubgrid(g, r)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, Placement{D: doms[i], SG: sg})
		}
		return ps
	}
	phases := [][]Placement{
		place(g, halves),
		place(g, uneven),
		place(g, []alloc.Rect{{W: g.Px, H: g.Py}}),
		place(g, []alloc.Rect{{X: 3, Y: 2, W: 1, H: 1}, {X: 4, Y: 2, W: 7, H: 9}}),
		place(g, []alloc.Rect{{X: 0, Y: 0, W: 2, H: 5}, {X: 2, Y: 0, W: 9, H: 5}, {X: 0, Y: 5, W: g.Px, H: g.Py - 5}}),
	}
	rowPhases := [][]Placement{
		place(row, rowSplit),
		place(row, []alloc.Rect{{W: 13, H: 1}}),
		place(row, []alloc.Rect{{X: 4, Y: 0, W: 2, H: 1}, {X: 0, Y: 0, W: 4, H: 1}, {X: 6, Y: 0, W: 7, H: 1}}),
	}
	var cases []kernelCase
	for _, build := range []func() (*mapping.Mapping, error){
		func() (*mapping.Mapping, error) { return mapping.Sequential(g, tor) },
		func() (*mapping.Mapping, error) { return mapping.TXYZ(g, tor, m.CoresPerNode) },
		func() (*mapping.Mapping, error) { return mapping.MultiLevel(g, tor) },
		func() (*mapping.Mapping, error) { return mapping.PartitionMapping(g, tor, halves) },
		func() (*mapping.Mapping, error) { return mapping.PartitionMapping(g, tor, uneven) },
		func() (*mapping.Mapping, error) { return mapping.Sequential(row, rowTor) },
		func() (*mapping.Mapping, error) { return mapping.PartitionMapping(row, rowTor, rowSplit) },
	} {
		mp, err := build()
		if err != nil {
			t.Fatal(err)
		}
		c := kernelCase{mp: mp, phases: phases}
		if mp.Grid == row {
			c.phases = rowPhases
		}
		cases = append(cases, c)
	}
	return m, cases
}

// TestRecordedFlowsMatchDefinition holds the single-pass kernel (flows
// routed once by heldNet.route into a network's flow table, priced from
// that table in stepCost) to
// the pair-list definition bit for bit, with and without contention.
func TestRecordedFlowsMatchDefinition(t *testing.T) {
	m, cases := kernelCases(t)
	for _, c := range cases {
		mp := c.mp
		for pi, placements := range c.phases {
			for _, contention := range []bool{true, false} {
				got := uncachedCosts(m, mp, placements, contention)
				want := definitionCosts(t, m, mp, placements, contention)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s phase %d contention=%v placement %d:\n got %+v\nwant %+v", mp.Name, pi, contention, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestConcurrentPhaseCostsMatchSerial runs PhaseCosts from GOMAXPROCS
// goroutines on distinct mappings of one torus shape, from an empty
// memo, and asserts every result equals the serial one bit for bit —
// the scenario the shared route cache's RWMutex used to serialise. Run
// under -race in CI.
func TestConcurrentPhaseCostsMatchSerial(t *testing.T) {
	m, cases := kernelCases(t)
	want := make([][][]StepCost, len(cases))
	for i, c := range cases {
		for _, placements := range c.phases {
			want[i] = append(want[i], definitionCosts(t, m, c.mp, placements, true))
		}
	}
	ResetCache()
	defer ResetCache()

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4 // still interleaves under -race on a small host
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				// Workers start on different mappings, so at any moment
				// several cold evaluations of one torus shape overlap.
				for k := range cases {
					i := (w + k) % len(cases)
					for pi, placements := range cases[i].phases {
						got := PhaseCosts(m, cases[i].mp, placements)
						for j := range got {
							if got[j] != want[i][pi][j] {
								t.Errorf("worker %d %s phase %d placement %d:\n got %+v\nwant %+v", w, cases[i].mp.Name, pi, j, got[j], want[i][pi][j])
							}
						}
					}
				}
				if w == 0 {
					ResetCache() // keep later rounds cold as well
				}
			}
		}(w)
	}
	wg.Wait()
}

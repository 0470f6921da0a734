package model

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/vtopo"
)

// heldCase is one evaluation of a geometry: a machine and the domains
// placed on its rectangles, with the definition's costs and congestion.
type heldCase struct {
	m          machine.Machine
	mp         *mapping.Mapping
	placements []Placement
	want       []StepCost
	cong       netsim.Congestion
}

// ringCases returns phases over a 4096-rank grid whose halos together
// hold more flows than the table ring: the full grid, its halves and its
// quarters in two orders, under the sequential, TXYZ and multi-level
// mappings, each about 16k flows.
func ringCases(t *testing.T) []kernelCase {
	t.Helper()
	g, err := machine.GridFor(4096)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := machine.TorusFor(4096)
	if err != nil {
		t.Fatal(err)
	}
	root := nest.Root("parent", 286, 307)
	var doms []*nest.Domain
	for i := 0; i < 4; i++ {
		doms = append(doms, root.AddChild("s", 394-20*i, 418-30*i, 3, 5+60*i, 5+40*i))
	}
	place := func(rects ...alloc.Rect) []Placement {
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
	w, h := g.Px/2, g.Py/2
	phases := [][]Placement{
		place(alloc.Rect{W: g.Px, H: g.Py}),
		place(alloc.Rect{W: w, H: g.Py}, alloc.Rect{X: w, W: g.Px - w, H: g.Py}),
		place(alloc.Rect{W: w, H: h}, alloc.Rect{X: w, W: g.Px - w, H: h}, alloc.Rect{Y: h, W: w, H: g.Py - h}, alloc.Rect{X: w, Y: h, W: g.Px - w, H: g.Py - h}),
		place(alloc.Rect{X: w, Y: h, W: g.Px - w, H: g.Py - h}, alloc.Rect{Y: h, W: w, H: g.Py - h}, alloc.Rect{X: w, W: g.Px - w, H: h}, alloc.Rect{W: w, H: h}),
	}
	var cases []kernelCase
	for _, build := range []func() (*mapping.Mapping, error){
		func() (*mapping.Mapping, error) { return mapping.Sequential(g, tor) },
		func() (*mapping.Mapping, error) { return mapping.TXYZ(g, tor, machine.BGL().CoresPerNode) },
		func() (*mapping.Mapping, error) { return mapping.MultiLevel(g, tor) },
	} {
		mp, err := build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, kernelCase{mp: mp, phases: phases})
	}
	return cases
}

// haloFlows is the number of flows in the contended halo of placements.
func haloFlows(placements []Placement) int {
	n := 0
	for _, p := range placements {
		n += 2 * len(p.SG.Grid().NeighborPairs())
	}
	return n
}

// checkRing asserts every table the ring holds is the flow table its
// geometry routes to afresh, the mappings found by key in mps.
func checkRing(t *testing.T, mps map[string]*mapping.Mapping) {
	t.Helper()
	tables.RLock()
	defer tables.RUnlock()
	for i, tb := range tables.idx {
		mp := mps[tb.key]
		if mp == nil {
			t.Fatalf("table %d names mapping %q, not one of the test's", i, tb.key)
		}
		var placements []Placement
		for _, sg := range tb.sgs {
			placements = append(placements, Placement{SG: sg})
		}
		h := takeNet(machine.BGL(), mp, placements)
		if !slices.Equal(tables.slab[tb.off:tb.off+tb.n], h.flows) {
			t.Errorf("table %d of %d (%s, %d subgrids at %d..%d) is not its geometry's flows", i, len(tables.idx), mp.Name, len(tb.sgs), tb.off, tb.off+tb.n)
		}
		releaseNet(h)
	}
}

// TestHeldGeometryMatchesDefinition cycles 67 geometries through
// PhaseCosts and PhaseCongestion from GOMAXPROCS goroutines: five
// mapping constructors × five rectangle sets on a 256-rank grid, two ×
// three on a 13x1 row (every set of several rectangles also listed in
// reverse), and ringCases' twelve on a 4096-rank grid, whose flows
// overflow the table ring, so tables are overwritten while other
// goroutines price from the ring. Each goroutine evaluates a geometry
// four times in a row, under two sets of domains and the BG/L and BG/P
// constants, also straight from the ring past the memo, so the later
// ones may find its table stored. Every result must equal the pair-list
// definition bit for bit, every table left in the ring must be its
// geometry's, and after ResetCache no table may be stored. Run under
// -race in CI.
func TestHeldGeometryMatchesDefinition(t *testing.T) {
	bgl, kcs := kernelCases(t)
	kcs = append(kcs, ringCases(t)...)
	var cases []heldCase
	flows := 0
	mps := map[string]*mapping.Mapping{}
	for _, kc := range kcs {
		mp := kc.mp
		mps[mp.Key()] = mp
		var geoms [][]Placement
		for _, placements := range kc.phases {
			geoms = append(geoms, placements)
			if len(placements) > 1 {
				// The same rectangles listed in reverse: another geometry.
				rev := make([]Placement, len(placements))
				for i, p := range placements {
					rev[len(rev)-1-i] = p
				}
				geoms = append(geoms, rev)
			}
		}
		for _, placements := range geoms {
			flows += haloFlows(placements)
			// The same rectangles under domains of other sizes.
			other := make([]Placement, len(placements))
			for i, p := range placements {
				d := nest.Root(p.D.Name, p.D.NX+17*(i+1), p.D.NY+9)
				other[i] = Placement{D: d, SG: p.SG}
			}
			for _, m := range []machine.Machine{bgl, machine.BGP()} {
				for _, ps := range [][]Placement{placements, other} {
					net := definitionNet(t, m, mp, ps, true)
					cases = append(cases, heldCase{m: m, mp: mp, placements: ps,
						want: definitionCosts(t, m, mp, ps, true), cong: net.Stats()})
				}
			}
		}
	}
	if flows <= ringFlows {
		t.Fatalf("the geometries hold %d flows, the ring %d: nothing is overwritten", flows, ringFlows)
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
			for round := 0; round < 2; round++ {
				for k := range cases {
					// Workers start on different geometries, so stores
					// overwrite tables others are looking up.
					c := cases[(w*len(cases)/workers+k)%len(cases)]
					got := PhaseCosts(c.m, c.mp, c.placements)
					ring := contendedCosts(c.m, c.mp, c.placements)
					cong := PhaseCongestion(c.m, c.mp, c.placements)
					if !reflect.DeepEqual(got, c.want) || !reflect.DeepEqual(ring, c.want) {
						t.Errorf("worker %d %s %v: PhaseCosts %+v, from the ring %+v, definition %+v",
							w, c.mp.Name, c.placements[0].SG.Rect, got, ring, c.want)
					}
					if !reflect.DeepEqual(cong, c.cong) {
						t.Errorf("worker %d %s %v: congestion %+v, definition %+v", w, c.mp.Name, c.placements[0].SG.Rect, cong, c.cong)
					}
				}
				if w == 0 {
					ResetCache() // later rounds start cold again
				}
			}
		}(w)
	}
	wg.Wait()

	checkRing(t, mps)
	ResetCache()
	tables.RLock()
	if len(tables.idx) != 0 || tables.next != 0 {
		t.Errorf("after ResetCache the ring holds %d tables, next at %d", len(tables.idx), tables.next)
	}
	tables.RUnlock()
	idle.Lock()
	if len(idle.nets) > maxIdleNets {
		t.Errorf("%d idle networks, want at most %d", len(idle.nets), maxIdleNets)
	}
	idle.Unlock()
}

// maxHeldMissAllocs bounds the allocations of a phase-memo miss on a
// geometry whose flow table the ring holds, on go1.24 linux/amd64: the
// memo key's byte buffer and string, and the result slice. Routing
// nothing, it takes no network.
const maxHeldMissAllocs = 3

// TestHeldMissAllocs holds a memo miss on a geometry the ring holds to
// maxHeldMissAllocs, and checks that the miss prices from the ring: with
// the idle list emptied, it must still be empty afterwards (a miss that
// routed would have released a network onto it).
func TestHeldMissAllocs(t *testing.T) {
	m, mp, placements := buildPlacements(t)
	ResetCache()
	defer ResetCache()
	PhaseCosts(m, mp, placements) // store the geometry's table
	idle.Lock()
	nets := idle.nets
	idle.nets = nil
	idle.Unlock()
	defer func() {
		idle.Lock()
		idle.nets = nets
		idle.Unlock()
	}()
	key, _ := phaseKey(m, mp, placements, true)
	miss := func() {
		phaseMu.Lock()
		delete(phaseCache, key)
		phaseMu.Unlock()
		PhaseCosts(m, mp, placements)
	}
	if allocs := testing.AllocsPerRun(100, miss); allocs > maxHeldMissAllocs {
		t.Errorf("a memo miss on a held geometry allocates %v times, want at most %d", allocs, maxHeldMissAllocs)
	}
	idle.Lock()
	defer idle.Unlock()
	if len(idle.nets) != 0 {
		t.Errorf("a memo miss on a held geometry took a network: %d idle", len(idle.nets))
	}
}

// TestRingSteadyStateAllocs cycles ringCases' geometries, more flows
// than the ring holds, so every lookup misses and every phase is routed
// and stored again. Once a first pass has sized the network and the
// ring, a pass allocates only each phase's result: no network is
// rebuilt, no table or index entry allocated.
func TestRingSteadyStateAllocs(t *testing.T) {
	m := machine.BGL()
	type geom struct {
		mp         *mapping.Mapping
		placements []Placement
	}
	var geoms []geom
	flows := 0
	mps := map[string]*mapping.Mapping{}
	for _, kc := range ringCases(t) {
		mps[kc.mp.Key()] = kc.mp
		for _, placements := range kc.phases {
			geoms = append(geoms, geom{kc.mp, placements})
			flows += haloFlows(placements)
		}
	}
	if flows <= ringFlows {
		t.Fatalf("the geometries hold %d flows, the ring %d", flows, ringFlows)
	}
	ResetCache()
	defer ResetCache()
	pass := func() {
		for _, g := range geoms {
			contendedCosts(m, g.mp, g.placements)
		}
	}
	if allocs := testing.AllocsPerRun(2, pass); allocs > float64(len(geoms)) {
		t.Errorf("a pass over %d geometries allocates %v times, want at most %d (the results)", len(geoms), allocs, len(geoms))
	}
	tables.RLock()
	held := len(tables.idx)
	tables.RUnlock()
	if held == 0 || held >= len(geoms) {
		t.Errorf("the ring holds %d of %d tables, want some but not all", held, len(geoms))
	}
	checkRing(t, mps)
}

// TestRingStoresGeometryOnce prices one fresh geometry from a burst of
// goroutines that all miss the ring at once, and requires that the ring
// then holds exactly one table: a miss that finds the table stored by
// another once it holds the write lock does not store it again.
func TestRingStoresGeometryOnce(t *testing.T) {
	m, mp, placements := buildPlacements(t)
	defer ResetCache()
	workers := max(runtime.GOMAXPROCS(0), 8)
	for round := 0; round < 10; round++ {
		ResetCache()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				contendedCosts(m, mp, placements)
			}()
		}
		close(start)
		wg.Wait()
		tables.RLock()
		held := len(tables.idx)
		tables.RUnlock()
		if held != 1 {
			t.Fatalf("round %d: %d goroutines pricing one geometry left %d tables", round, workers, held)
		}
	}
}

package model

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
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

// TestHeldGeometryMatchesDefinition cycles 55 geometries (five mapping
// constructors × five rectangle sets on a 256-rank grid and two × three
// on a 13x1 row, every set of several rectangles also listed in
// reverse), far more than the idle networks' slots, through PhaseCosts
// and PhaseCostsCongestion from GOMAXPROCS goroutines. Each goroutine
// evaluates a geometry four times in a row, under two sets of domains
// and the BG/L and BG/P constants, so the later ones find it held.
// Every result must equal the pair-list definition bit for bit, and
// after ResetCache no idle network may hold a geometry. Run under -race
// in CI.
func TestHeldGeometryMatchesDefinition(t *testing.T) {
	bgl, kcs := kernelCases(t)
	var cases []heldCase
	for _, kc := range kcs {
		mp := kc.mp
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
					// Workers start on different geometries, so they
					// compete for the idle slots.
					c := cases[(w*len(cases)/workers+k)%len(cases)]
					got := PhaseCosts(c.m, c.mp, c.placements)
					inst, cong := PhaseCostsCongestion(c.m, c.mp, c.placements)
					if !reflect.DeepEqual(got, c.want) || !reflect.DeepEqual(inst, c.want) {
						t.Errorf("worker %d %s %v: PhaseCosts %+v, PhaseCostsCongestion %+v, definition %+v",
							w, c.mp.Name, c.placements[0].SG.Rect, got, inst, c.want)
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

	ResetCache()
	idle.Lock()
	defer idle.Unlock()
	if len(idle.nets) == 0 || len(idle.nets) > maxIdleNets {
		t.Errorf("%d idle networks, want 1..%d", len(idle.nets), maxIdleNets)
	}
	for i, h := range idle.nets {
		if h.key != "" || len(h.sgs) != 0 {
			t.Errorf("idle network %d still holds %q over %d subgrids after ResetCache", i, h.key, len(h.sgs))
		}
	}
}

// maxHeldMissAllocs bounds the allocations of a phase-memo miss on a
// geometry an idle network holds, on go1.24 linux/amd64: the memo key's
// byte buffer and string, and the result slice. Routing nothing, it
// takes none of the network's buffers.
const maxHeldMissAllocs = 3

// TestHeldMissAllocs holds a memo miss on a held geometry to
// maxHeldMissAllocs, and checks that the miss prices from the held
// network rather than routing the halo again.
func TestHeldMissAllocs(t *testing.T) {
	m, mp, placements := buildPlacements(t)
	ResetCache()
	defer ResetCache()
	PhaseCosts(m, mp, placements) // route the geometry, size the buffers
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
	last := idle.nets[len(idle.nets)-1]
	if !last.holds(mp, placements) {
		t.Fatal("the most recently used idle network does not hold the geometry")
	}
	if n := last.net.Flows(); n != len(last.flows) {
		t.Errorf("held network carries %d flows, its table %d", n, len(last.flows))
	}
}

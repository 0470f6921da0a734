package model

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/vtopo"
)

// buildPlacements assembles a two-sibling concurrent phase on a 64-rank
// multilevel mapping.
func buildPlacements(t *testing.T) (machine.Machine, *mapping.Mapping, []Placement) {
	t.Helper()
	m := machine.BGL()
	g, err := machine.GridFor(64)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := machine.TorusFor(64)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mapping.MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	root := nest.Root("parent", 286, 307)
	c1 := root.AddChild("s1", 200, 180, 3, 5, 5)
	c2 := root.AddChild("s2", 160, 220, 3, 60, 60)
	sg1, err := vtopo.NewSubgrid(g, alloc.Rect{X: 0, Y: 0, W: 4, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	sg2, err := vtopo.NewSubgrid(g, alloc.Rect{X: 4, Y: 0, W: 4, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m, mp, []Placement{{D: c1, SG: sg1}, {D: c2, SG: sg2}}
}

// uncachedCosts evaluates a phase the way phaseCosts does on a miss,
// without consulting or filling the memo: the oracle the cached results
// are held to.
func uncachedCosts(m machine.Machine, mp *mapping.Mapping, placements []Placement, contention bool) []StepCost {
	if !contention {
		return priceFlows(m, mp, placements, nil)
	}
	net, err := netsim.New(mp.Torus, m.Net)
	if err != nil {
		panic(err)
	}
	h := &heldNet{net: net} // a fresh network, never on the idle list
	h.route(mp, placements)
	return priceFlows(m, mp, placements, h.flows)
}

// TestMemoizedMatchesUncached asserts the phase-cost cache is
// bit-exact against the uncached evaluation, for both contention
// settings, including the HopsAvg hop metric.
func TestMemoizedMatchesUncached(t *testing.T) {
	m, mp, placements := buildPlacements(t)

	for _, contention := range []bool{true, false} {
		want := uncachedCosts(m, mp, placements, contention)
		ResetCache()
		miss := phaseCosts(m, mp, placements, contention) // populates the cache
		hit := phaseCosts(m, mp, placements, contention)  // must be served from it
		for i := range want {
			if miss[i] != want[i] {
				t.Errorf("contention=%v placement %d: uncached %+v, first call %+v", contention, i, want[i], miss[i])
			}
			if hit[i] != want[i] {
				t.Errorf("contention=%v placement %d: uncached %+v, cached %+v", contention, i, want[i], hit[i])
			}
		}
	}
}

// memoKey is the memo key phaseCosts looks placements up under.
func memoKey(m machine.Machine, mp *mapping.Mapping, placements []Placement, contention bool) (string, bool) {
	b, ok := appendPhaseKey(nil, m, mp, placements, contention)
	return string(b), ok
}

// TestMemoKeyDistinguishes asserts the cache key separates evaluations
// that must not share results: different contention, different machine
// constants, different mappings, different placements.
func TestMemoKeyDistinguishes(t *testing.T) {
	m, mp, placements := buildPlacements(t)

	key1, ok := memoKey(m, mp, placements, true)
	if !ok {
		t.Fatal("appendPhaseKey not cacheable for constructor-built mapping")
	}
	if key2, _ := memoKey(m, mp, placements, false); key2 == key1 {
		t.Error("contention flag not encoded in key")
	}
	m2 := m
	m2.PointCost *= 2
	if key2, _ := memoKey(m2, mp, placements, true); key2 == key1 {
		t.Error("machine PointCost not encoded in key")
	}
	mp2, err := mapping.Sequential(mp.Grid, mp.Torus)
	if err != nil {
		t.Fatal(err)
	}
	if key2, _ := memoKey(m, mp2, placements, true); key2 == key1 {
		t.Error("mapping identity not encoded in key")
	}
	if key2, _ := memoKey(m, mp, placements[:1], true); key2 == key1 {
		t.Error("placement set not encoded in key")
	}
}

// TestMemoKeyCoversEveryMachineField walks machine.Machine by
// reflection, Net and IO included, and changes one leaf at a time —
// every scalar, every Modes element, and the length of Modes. Each
// change must change the memo key, so a field added to Machine later
// is keyed without anyone listing it.
func TestMemoKeyCoversEveryMachineField(t *testing.T) {
	_, mp, placements := buildPlacements(t)
	for _, build := range []func() machine.Machine{machine.BGL, machine.BGP} {
		base := build()
		want, _ := memoKey(base, mp, placements, true)
		leaves := 0
		// walk changes the node at(m) selects in a fresh machine (build
		// allocates new slices, so base is never touched) and recurses
		// into structs and slices.
		var walk func(path string, at func(*machine.Machine) reflect.Value)
		walk = func(path string, at func(*machine.Machine) reflect.Value) {
			m := build()
			v := at(&m)
			switch v.Kind() {
			case reflect.Struct:
				for i := range v.NumField() {
					walk(path+"."+v.Type().Field(i).Name, func(m *machine.Machine) reflect.Value { return at(m).Field(i) })
				}
				return
			case reflect.Slice:
				for i := range v.Len() {
					walk(fmt.Sprintf("%s[%d]", path, i), func(m *machine.Machine) reflect.Value { return at(m).Index(i) })
				}
				v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
				path += " length"
			case reflect.String:
				v.SetString(v.String() + "'")
			case reflect.Int:
				v.SetInt(v.Int() + 1)
			case reflect.Float64:
				v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
			default:
				t.Fatalf("%s: no change defined for kind %v", path, v.Kind())
			}
			leaves++
			if got, _ := memoKey(m, mp, placements, true); got == want {
				t.Errorf("%s: changing %s leaves the memo key unchanged", base.Name, path)
			}
		}
		walk("Machine", func(m *machine.Machine) reflect.Value { return reflect.ValueOf(m).Elem() })
		if leaves < 16 {
			t.Errorf("%s: the walk changed %d leaves, want every field of Machine, Net and IO", base.Name, leaves)
		}
	}
}

// TestPhaseMemoHitAllocs holds a phase-memo hit to zero allocations:
// the key is built in a stack buffer and looked up without a string.
func TestPhaseMemoHitAllocs(t *testing.T) {
	m, mp, placements := buildPlacements(t)
	ResetCache()
	defer ResetCache()
	PhaseCosts(m, mp, placements) // fill the memo
	if allocs := testing.AllocsPerRun(100, func() { PhaseCosts(m, mp, placements) }); allocs != 0 {
		t.Errorf("a phase-memo hit allocates %v times, want 0", allocs)
	}
}

// TestPhaseCacheBounded asserts the memo never holds more than
// maxPhaseEntries phases however many distinct ones are evaluated, and
// that a phase evaluated before and after the cache was dropped still
// equals the uncached evaluation bit for bit.
func TestPhaseCacheBounded(t *testing.T) {
	m, mp, placements := buildPlacements(t)
	ResetCache()
	defer ResetCache()

	want := uncachedCosts(m, mp, placements, true)
	before := phaseCosts(m, mp, placements, true)

	d := *placements[0].D
	distinct := []Placement{{D: &d, SG: placements[0].SG}}
	for i := 0; i < maxPhaseEntries+10; i++ {
		d.NX = 100 + i
		phaseCosts(m, mp, distinct, true)
		if n := len(phaseCache); n > maxPhaseEntries {
			t.Fatalf("after %d distinct phases the cache holds %d entries, cap %d", i+2, n, maxPhaseEntries)
		}
	}
	key, _ := memoKey(m, mp, placements, true)
	if _, resident := phaseCache[key]; resident {
		t.Fatal("cache was never dropped: the first phase is still resident")
	}

	after := phaseCosts(m, mp, placements, true)
	for i := range want {
		if before[i] != want[i] || after[i] != want[i] {
			t.Errorf("placement %d: uncached %+v, before drop %+v, after drop %+v", i, want[i], before[i], after[i])
		}
	}
}

package mapping

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// quickShapes generates machine-consistent (ranks, weights) inputs.
func quickShapes(vals []reflect.Value, rng *rand.Rand) {
	ranks := []int{32, 64, 128, 256, 512, 1024}[rng.Intn(6)]
	k := 1 + rng.Intn(4)
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 0.2 + rng.Float64()*3
	}
	vals[0] = reflect.ValueOf(ranks)
	vals[1] = reflect.ValueOf(weights)
}

// Property: every mapping kind is a bijection for every machine shape
// and partitioning.
func TestQuickMappingsBijective(t *testing.T) {
	f := func(ranks int, weights []float64) bool {
		g, err := machine.GridFor(ranks)
		if err != nil {
			return false
		}
		tor, err := machine.TorusFor(ranks)
		if err != nil {
			return false
		}
		rects, err := alloc.Partition(weights, g.Px, g.Py)
		if err != nil {
			return false
		}
		builders := []func() (*Mapping, error){
			func() (*Mapping, error) { return Sequential(g, tor) },
			func() (*Mapping, error) { return TXYZ(g, tor, 2) },
			func() (*Mapping, error) { return MultiLevel(g, tor) },
			func() (*Mapping, error) { return PartitionMapping(g, tor, rects) },
		}
		for _, build := range builders {
			m, err := build()
			if err != nil {
				t.Logf("ranks=%d weights=%v: %v", ranks, weights, err)
				return false
			}
			if err := m.Validate(); err != nil {
				t.Logf("ranks=%d weights=%v: %v", ranks, weights, err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11)), Values: quickShapes}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the multi-level fold's x-neighbours are always exactly one
// hop apart, and its overall average never loses to the oblivious
// mapping.
func TestQuickMultiLevelQuality(t *testing.T) {
	f := func(ranks int, weights []float64) bool {
		g, err := machine.GridFor(ranks)
		if err != nil {
			return false
		}
		tor, err := machine.TorusFor(ranks)
		if err != nil {
			return false
		}
		fold, err := MultiLevel(g, tor)
		if err != nil {
			return false
		}
		seq, err := Sequential(g, tor)
		if err != nil {
			return false
		}
		pairs := g.NeighborPairs()
		for _, p := range pairs {
			ax, ay := g.Coord(p[0])
			bx, by := g.Coord(p[1])
			if ay == by && bx == ax+1 { // x-neighbour
				if fold.Hops(p[0], p[1]) != 1 {
					t.Logf("ranks=%d: x-pair %v has %d hops", ranks, p, fold.Hops(p[0], p[1]))
					return false
				}
			}
		}
		return AvgHops(fold, pairs) <= AvgHops(seq, pairs)+1e-12
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(13)), Values: quickShapes}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: partition mapping gives every sibling internal average hops
// no worse than the oblivious mapping does.
func TestQuickPartitionSiblingLocality(t *testing.T) {
	f := func(ranks int, weights []float64) bool {
		g, err := machine.GridFor(ranks)
		if err != nil {
			return false
		}
		tor, err := machine.TorusFor(ranks)
		if err != nil {
			return false
		}
		rects, err := alloc.Partition(weights, g.Px, g.Py)
		if err != nil {
			return false
		}
		pm, err := PartitionMapping(g, tor, rects)
		if err != nil {
			return false
		}
		seq, err := Sequential(g, tor)
		if err != nil {
			return false
		}
		rp, err := Analyze(pm, rects)
		if err != nil {
			return false
		}
		rs, err := Analyze(seq, rects)
		if err != nil {
			return false
		}
		for i := range rp.SiblingAvg {
			if rp.SiblingAvg[i] > rs.SiblingAvg[i]+1e-12 {
				t.Logf("ranks=%d weights=%v sibling %d: partition %v vs oblivious %v",
					ranks, weights, i, rp.SiblingAvg[i], rs.SiblingAvg[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17)), Values: quickShapes}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: hop distances are symmetric under any mapping.
func TestQuickHopsSymmetric(t *testing.T) {
	g, _ := vtopo.NewGrid(16, 8)
	tor, _ := torus.New(4, 4, 8)
	m, err := MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 500; i++ {
		a, b := rng.Intn(g.Size()), rng.Intn(g.Size())
		if m.Hops(a, b) != m.Hops(b, a) {
			t.Fatalf("asymmetric hops for ranks %d, %d", a, b)
		}
	}
}

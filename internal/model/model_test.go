package model

import (
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/vtopo"
)

func setup1024(t *testing.T) (*mapping.Mapping, machine.Machine) {
	t.Helper()
	g, err := machine.GridFor(1024)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := machine.TorusFor(1024)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Sequential(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	return m, machine.BGL()
}

func subgrid(t *testing.T, g vtopo.Grid, r alloc.Rect) vtopo.Subgrid {
	t.Helper()
	sg, err := vtopo.NewSubgrid(g, r)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

func TestSingleDomainStepPositive(t *testing.T) {
	mp, m := setup1024(t)
	d := nest.Root("nest", 394, 418)
	c := SingleDomainStep(m, mp, d)
	if c.Compute <= 0 || c.CommMax <= 0 || c.CommAvg <= 0 {
		t.Fatalf("cost fields must be positive: %+v", c)
	}
	if c.CommAvg > c.CommMax {
		t.Errorf("CommAvg %v > CommMax %v", c.CommAvg, c.CommMax)
	}
	if c.Ranks != 1024 {
		t.Errorf("Ranks = %d", c.Ranks)
	}
	if c.Time() != c.Compute+c.CommMax {
		t.Error("Time() mismatch")
	}
}

// More processors means less compute per rank.
func TestComputeShrinksWithRanks(t *testing.T) {
	d := nest.Root("nest", 394, 418)
	var prev float64
	for i, ranks := range []int{64, 256, 1024} {
		g, _ := machine.GridFor(ranks)
		tor, _ := machine.TorusFor(ranks)
		mp, err := mapping.Sequential(g, tor)
		if err != nil {
			t.Fatal(err)
		}
		c := SingleDomainStep(machine.BGL(), mp, d)
		if i > 0 && c.Compute >= prev {
			t.Errorf("ranks=%d: compute %v not below previous %v", ranks, c.Compute, prev)
		}
		prev = c.Compute
	}
}

// Sub-linear scaling: the step time improvement from 512 to 1024 ranks
// must be clearly below the ideal 2x (the premise of the whole paper).
func TestSubLinearScaling(t *testing.T) {
	d := nest.Root("nest", 415, 445)
	times := map[int]float64{}
	for _, ranks := range []int{512, 1024} {
		g, _ := machine.GridFor(ranks)
		tor, _ := machine.TorusFor(ranks)
		mp, err := mapping.Sequential(g, tor)
		if err != nil {
			t.Fatal(err)
		}
		times[ranks] = SingleDomainStep(machine.BGL(), mp, d).Time()
	}
	ratio := times[512] / times[1024]
	if ratio >= 1.8 {
		t.Errorf("512->1024 speedup %v too close to linear", ratio)
	}
	if ratio <= 1.0 {
		t.Errorf("512->1024 ratio %v: more processors should not be slower here", ratio)
	}
}

// A sibling on a quarter of the machine takes less than 4x the step
// time it takes on the full machine (sub-linear scalability), which is
// exactly why concurrent siblings win.
func TestPartitionStepCostRatio(t *testing.T) {
	mp, m := setup1024(t)
	d := nest.Root("nest", 394, 418)
	full := SingleDomainStep(m, mp, d)
	quarter := subgrid(t, mp.Grid, alloc.Rect{X: 0, Y: 0, W: 16, H: 16})
	part := PhaseCosts(m, mp, []Placement{{D: d, SG: quarter}})[0]
	if part.Time() <= full.Time() {
		t.Errorf("quarter machine %v should be slower than full %v", part.Time(), full.Time())
	}
	if part.Time() >= 4*full.Time() {
		t.Errorf("quarter machine %v >= 4x full %v: scaling should be sub-linear", part.Time(), full.Time())
	}
}

// Communication fraction at 1024 ranks should be in the vicinity the
// paper reports ("about 40% of the total execution time in WRF is
// spent in communication").
func TestCommunicationFraction(t *testing.T) {
	mp, m := setup1024(t)
	d := nest.Root("nest", 394, 418)
	c := SingleDomainStep(m, mp, d)
	frac := c.CommMax / c.Time()
	if frac < 0.2 || frac > 0.6 {
		t.Errorf("communication fraction = %v, want roughly 0.4 (0.2-0.6)", frac)
	}
}

// Concurrent placements see contention from each other: a sibling's
// comm cost with three other active siblings must be at least its cost
// when communicating alone.
func TestPhaseContention(t *testing.T) {
	mp, m := setup1024(t)
	d := nest.Root("nest", 300, 300)
	rects, err := alloc.Partition([]float64{1, 1, 1, 1}, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	placements := make([]Placement, 4)
	for i, r := range rects {
		placements[i] = Placement{D: d, SG: subgrid(t, mp.Grid, r)}
	}
	together := PhaseCosts(m, mp, placements)
	alone := PhaseCosts(m, mp, placements[:1])
	if together[0].CommAvg < alone[0].CommAvg {
		t.Errorf("contended comm %v below uncontended %v", together[0].CommAvg, alone[0].CommAvg)
	}
}

// A topology-aware mapping must reduce both hops and communication
// time compared with the oblivious mapping for the same placement.
func TestMappingReducesComm(t *testing.T) {
	g, _ := machine.GridFor(1024)
	tor, _ := machine.TorusFor(1024)
	m := machine.BGL()
	d := nest.Root("nest", 394, 418)

	seq, err := mapping.Sequential(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := mapping.MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	cSeq := SingleDomainStep(m, seq, d)
	cFold := SingleDomainStep(m, fold, d)
	if cFold.HopsAvg >= cSeq.HopsAvg {
		t.Errorf("fold hops %v not below sequential %v", cFold.HopsAvg, cSeq.HopsAvg)
	}
	if cFold.CommAvg >= cSeq.CommAvg {
		t.Errorf("fold comm %v not below sequential %v", cFold.CommAvg, cSeq.CommAvg)
	}
	if cFold.Compute != cSeq.Compute {
		t.Error("mapping must not change compute time")
	}
}

func TestCouplingCost(t *testing.T) {
	m := machine.BGL()
	d := &nest.Domain{Name: "n", NX: 300, NY: 300, Ratio: 3}
	c := CouplingCost(m, d, 1024)
	if c <= 0 {
		t.Errorf("coupling cost = %v", c)
	}
	// More ranks share the work.
	if CouplingCost(m, d, 2048) >= c {
		t.Error("coupling cost should fall with ranks")
	}
	if CouplingCost(m, d, 0) != 0 {
		t.Error("zero ranks should cost 0")
	}
}

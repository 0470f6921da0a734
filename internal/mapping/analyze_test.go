package mapping

import (
	"reflect"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// analyzeByPairs is the definition Analyze must reproduce: the report
// assembled from explicit pair lists (Grid.NeighborPairs of the parent
// and of each sibling, lifted to parent ranks) through AvgHops and
// MaxHops.
func analyzeByPairs(t *testing.T, m *Mapping, rects []alloc.Rect) Report {
	t.Helper()
	rep := Report{Name: m.Name}
	all := m.Grid.NeighborPairs()
	rep.ParentAvg, rep.ParentMax = AvgHops(m, all), MaxHops(m, all)
	for _, rect := range rects {
		sg, err := vtopo.NewSubgrid(m.Grid, rect)
		if err != nil {
			t.Fatal(err)
		}
		var global [][2]int
		for _, p := range sg.Grid().NeighborPairs() {
			global = append(global, [2]int{sg.GlobalRank(p[0]), sg.GlobalRank(p[1])})
		}
		rep.SiblingAvg = append(rep.SiblingAvg, AvgHops(m, global))
		rep.SiblingMax = append(rep.SiblingMax, MaxHops(m, global))
		all = append(all, global...)
	}
	rep.OverallAvg, rep.OverallPairs = AvgHops(m, all), len(all)
	return rep
}

func TestAnalyzeMatchesPairListDefinition(t *testing.T) {
	g, _ := vtopo.NewGrid(16, 16)
	tor, _ := torus.New(8, 8, 4)
	rectSets := [][]alloc.Rect{
		nil,
		{{X: 0, Y: 0, W: 8, H: 16}, {X: 8, Y: 0, W: 8, H: 16}},
		{{X: 0, Y: 0, W: 5, H: 16}, {X: 5, Y: 0, W: 1, H: 16}, {X: 6, Y: 0, W: 10, H: 1}, {X: 6, Y: 1, W: 10, H: 15}},
		{{X: 3, Y: 2, W: 1, H: 1}},
	}
	for _, build := range []func() (*Mapping, error){
		func() (*Mapping, error) { return Sequential(g, tor) },
		func() (*Mapping, error) { return TXYZ(g, tor, 2) },
		func() (*Mapping, error) { return MultiLevel(g, tor) },
		func() (*Mapping, error) { return PartitionMapping(g, tor, rectSets[1]) },
	} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, rects := range rectSets {
			got, err := Analyze(m, rects)
			if err != nil {
				t.Fatal(err)
			}
			if want := analyzeByPairs(t, m, rects); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v:\n got %+v\nwant %+v", m.Name, rects, got, want)
			}
		}
	}
	m, _ := Sequential(g, tor)
	if _, err := Analyze(m, []alloc.Rect{{X: 10, Y: 0, W: 8, H: 4}}); err == nil {
		t.Error("rectangle outside the grid should fail")
	}
}

// TestAnalyzeAllocatesOnlyResultSlices: one pass over the rows, no pair
// lists — the two per-sibling result slices are all Analyze allocates.
func TestAnalyzeAllocatesOnlyResultSlices(t *testing.T) {
	g, _ := vtopo.NewGrid(32, 32)
	tor, _ := torus.New(8, 8, 16)
	rects, err := alloc.Partition([]float64{0.4, 0.3, 0.3}, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := Analyze(m, rects); err != nil {
			t.Fatal(err)
		}
	}); avg != 2 {
		t.Errorf("Analyze allocates %v allocs/op, want 2 (SiblingAvg, SiblingMax)", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := Analyze(m, nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Analyze without siblings allocates %v allocs/op, want 0", avg)
	}
}

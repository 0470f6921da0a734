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

	// The edges of the one-pass walk: single rows and columns, prime
	// grids, grids wider than a column strip (130 columns: strips of 64,
	// 64 and 2), siblings that touch without covering the grid, a
	// single-rank sibling at each corner (all four at once coincide on
	// a 1xN grid), and 20 one-column siblings spread over the strips.
	for _, c := range []struct {
		px, py int
		tor    torus.Torus
		touch  []alloc.Rect
	}{
		{1, 150, torus.Torus{X: 5, Y: 5, Z: 6}, []alloc.Rect{{X: 0, Y: 0, W: 1, H: 70}, {X: 0, Y: 70, W: 1, H: 79}}},
		{150, 1, torus.Torus{X: 5, Y: 5, Z: 6}, []alloc.Rect{{X: 1, Y: 0, W: 63, H: 1}, {X: 64, Y: 0, W: 30, H: 1}}},
		{131, 1, torus.Torus{X: 131, Y: 1, Z: 1}, []alloc.Rect{{X: 0, Y: 0, W: 64, H: 1}, {X: 64, Y: 0, W: 1, H: 1}}},
		{7, 11, torus.Torus{X: 7, Y: 11, Z: 1}, []alloc.Rect{{X: 1, Y: 1, W: 3, H: 5}, {X: 4, Y: 2, W: 2, H: 9}, {X: 1, Y: 6, W: 3, H: 1}}},
		{130, 6, torus.Torus{X: 65, Y: 3, Z: 4}, []alloc.Rect{{X: 60, Y: 0, W: 10, H: 3}, {X: 60, Y: 3, W: 70, H: 2}, {X: 0, Y: 2, W: 60, H: 4}}},
	} {
		g, err := vtopo.NewGrid(c.px, c.py)
		if err != nil {
			t.Fatal(err)
		}
		tiling, err := alloc.Partition([]float64{0.4, 0.35, 0.25}, c.px, c.py)
		if err != nil {
			t.Fatal(err)
		}
		corners := []alloc.Rect{{X: 0, Y: 0, W: 1, H: 1}, {X: c.px - 1, Y: 0, W: 1, H: 1}, {X: 0, Y: c.py - 1, W: 1, H: 1}, {X: c.px - 1, Y: c.py - 1, W: 1, H: 1}}
		var cols []alloc.Rect
		for i := 0; i < 20 && i < c.px; i++ {
			cols = append(cols, alloc.Rect{X: i * c.px / min(20, c.px), Y: 0, W: 1, H: c.py})
		}
		rectSets := [][]alloc.Rect{nil, tiling, c.touch, corners, cols}
		for i := range corners {
			rectSets = append(rectSets, corners[i:i+1])
		}
		builds := []func() (*Mapping, error){
			func() (*Mapping, error) { return Sequential(g, c.tor) },
			func() (*Mapping, error) { return PartitionMapping(g, c.tor, tiling) },
		}
		if c.tor.Z%2 == 0 {
			builds = append(builds, func() (*Mapping, error) { return TXYZ(g, c.tor, 2) })
		}
		if _, _, err := foldParams(g, c.tor); err == nil {
			builds = append(builds, func() (*Mapping, error) { return MultiLevel(g, c.tor) })
		}
		for _, build := range builds {
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
					t.Errorf("%s %dx%d %v:\n got %+v\nwant %+v", m.Name, c.px, c.py, rects, got, want)
				}
			}
		}
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

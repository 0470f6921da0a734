package machine

import (
	"strconv"
	"strings"
	"testing"

	"nestwrf/internal/mapping"
)

func TestMachineBasics(t *testing.T) {
	bgl, bgp := BGL(), BGP()
	if bgl.CoresPerNode != 2 || bgp.CoresPerNode != 4 {
		t.Error("cores per node wrong")
	}
	if err := bgl.Net.Validate(); err != nil {
		t.Errorf("BGL net params: %v", err)
	}
	if err := bgp.Net.Validate(); err != nil {
		t.Errorf("BGP net params: %v", err)
	}
	if err := bgl.IO.Validate(); err != nil {
		t.Errorf("BGL IO params: %v", err)
	}
	if err := bgp.IO.Validate(); err != nil {
		t.Errorf("BGP IO params: %v", err)
	}
	// BG/P is the faster machine per core.
	if bgp.PointCost >= bgl.PointCost {
		t.Error("BGP should have lower point cost than BGL")
	}
	if bgp.Net.Bandwidth <= bgl.Net.Bandwidth {
		t.Error("BGP should have higher link bandwidth")
	}
}

func TestRanksPerNode(t *testing.T) {
	bgl, bgp := BGL(), BGP()
	if bgl.RanksPerNode(CO) != 1 || bgl.RanksPerNode(VN) != 2 {
		t.Error("BGL modes wrong")
	}
	if bgp.RanksPerNode(SMP) != 1 || bgp.RanksPerNode(Dual) != 2 || bgp.RanksPerNode(VN) != 4 {
		t.Error("BGP modes wrong")
	}
	// "1024 cores (512 nodes in VN mode) on BG/L".
	if got := bgl.NodesFor(1024, VN); got != 512 {
		t.Errorf("BGL nodes for 1024 VN ranks = %d, want 512", got)
	}
	if got := bgp.NodesFor(4096, VN); got != 1024 {
		t.Errorf("BGP nodes for 4096 VN ranks = %d, want 1024", got)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{CO: "CO", VN: "VN", SMP: "SMP", Dual: "Dual"} {
		if m.String() != want {
			t.Errorf("%v string = %q", m, m.String())
		}
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
}

func TestGridForShapes(t *testing.T) {
	cases := map[int][2]int{
		32:   {8, 4}, // the paper's Fig. 5(a) example
		64:   {8, 8},
		512:  {32, 16},
		1024: {32, 32},
		4096: {64, 64},
		8192: {128, 64},
		48:   {8, 6},
	}
	for ranks, want := range cases {
		g, err := GridFor(ranks)
		if err != nil {
			t.Fatalf("GridFor(%d): %v", ranks, err)
		}
		if g.Px != want[0] || g.Py != want[1] {
			t.Errorf("GridFor(%d) = %dx%d, want %dx%d", ranks, g.Px, g.Py, want[0], want[1])
		}
		if g.Size() != ranks {
			t.Errorf("GridFor(%d) size = %d", ranks, g.Size())
		}
	}
	if _, err := GridFor(0); err == nil {
		t.Error("GridFor(0) should fail")
	}
}

func TestTorusForShapes(t *testing.T) {
	cases := map[int][3]int{
		32:   {4, 4, 2},  // Fig. 5(b)'s torus
		512:  {8, 8, 8},  // one BG/L midplane
		1024: {8, 8, 16}, // one BG/L rack in cores
		4096: {16, 16, 16},
	}
	for ranks, want := range cases {
		tor, err := TorusFor(ranks)
		if err != nil {
			t.Fatalf("TorusFor(%d): %v", ranks, err)
		}
		if tor.X != want[0] || tor.Y != want[1] || tor.Z != want[2] {
			t.Errorf("TorusFor(%d) = %dx%dx%d, want %v", ranks, tor.X, tor.Y, tor.Z, want)
		}
		if tor.Nodes() != ranks {
			t.Errorf("TorusFor(%d) nodes = %d", ranks, tor.Nodes())
		}
	}
}

// Every experiment core count must give a grid that folds onto its
// torus (multi-level mapping feasible) — the paper's experiments use
// only foldable configurations.
func TestAllCoreCountsFoldable(t *testing.T) {
	for _, ranks := range []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		g, err := GridFor(ranks)
		if err != nil {
			t.Fatalf("GridFor(%d): %v", ranks, err)
		}
		tor, err := TorusFor(ranks)
		if err != nil {
			t.Fatalf("TorusFor(%d): %v", ranks, err)
		}
		m, err := mapping.MultiLevel(g, tor)
		if err != nil {
			t.Fatalf("MultiLevel fold for %d ranks: %v", ranks, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("fold for %d ranks invalid: %v", ranks, err)
		}
	}
}

func TestParse(t *testing.T) {
	cases := map[string]string{
		"bgl": "BlueGene/L", "BGL": "BlueGene/L", "bg/l": "BlueGene/L", "BG/L": "BlueGene/L",
		"bluegene/l": "BlueGene/L", "BlueGene/L": "BlueGene/L",
		"bgp": "BlueGene/P", "BGP": "BlueGene/P", "bg/p": "BlueGene/P", "Bg/P": "BlueGene/P",
		"bluegene/p": "BlueGene/P", "BlueGene/P": "BlueGene/P",
	}
	for in, want := range cases {
		m, err := Parse(in)
		if err != nil || m.Name != want {
			t.Errorf("Parse(%q) = %q, %v; want %q", in, m.Name, err, want)
		}
	}
	for _, in := range []string{"", "cray", "bgq", "bluegene"} {
		if _, err := Parse(in); err == nil || !strings.Contains(err.Error(), strconv.Quote(in)) {
			t.Errorf("Parse(%q) err = %v; want an error naming it", in, err)
		}
	}
}

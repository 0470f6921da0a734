package nestwrf_test

import (
	"testing"

	"nestwrf"
)

// topoMachine is Blue Gene/L with a per-hop latency heavy enough for
// the mapping to show in a 32-rank functional run.
func topoMachine() nestwrf.Machine {
	m := nestwrf.BlueGeneL()
	m.Net.LatencyPerHop = 2e-5
	m.Net.Overhead = 1e-5
	m.Net.Bandwidth = 175e6
	return m
}

func topoModel(t *testing.T, kind nestwrf.MapKind) nestwrf.TimeModel {
	t.Helper()
	tm, err := nestwrf.NewTopologyTimeModel(kind, topoMachine(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestTopologyTimeModelValidation(t *testing.T) {
	if _, err := nestwrf.NewTopologyTimeModel(nestwrf.MapOblivious, topoMachine(), 0, nil); err == nil {
		t.Error("zero ranks should fail")
	}
	bad := topoMachine()
	bad.Net.Bandwidth = 0
	if _, err := nestwrf.NewTopologyTimeModel(nestwrf.MapOblivious, bad, 32, nil); err == nil {
		t.Error("bad network parameters should fail")
	}
}

func TestTopologyTimeModelScalesWithHops(t *testing.T) {
	tm := topoModel(t, nestwrf.MapOblivious)
	// Ranks 0 and 1 are torus neighbours; 0 and 8 are 2 hops apart
	// (Fig. 5b).
	near := tm.Transfer(0, 1, 1000)
	far := tm.Transfer(0, 8, 1000)
	if far <= near {
		t.Errorf("2-hop transfer %v should exceed 1-hop %v", far, near)
	}
	net := topoMachine().Net
	want := net.Overhead + 2*net.LatencyPerHop + 1000/net.Bandwidth
	if far != want {
		t.Errorf("far = %v, want %v", far, want)
	}
	// Out-of-range ranks pay the diameter.
	worst := tm.Transfer(-1, 5, 0)
	if worst < tm.Transfer(0, 8, 0) {
		t.Error("out-of-range transfer should be worst-case")
	}
}

// A message prices as in the phase-cost model: a rank sending to
// itself pays the per-message overhead alone. Ranks that share a node
// are distinct points of the core torus (TXYZ puts BG/L's ranks 0 and 1
// one Z hop apart), so they pay one hop.
func TestTopologyTimeModelMessagePrice(t *testing.T) {
	m := nestwrf.BlueGeneL()
	tm, err := nestwrf.NewTopologyTimeModel(nestwrf.MapTXYZ, m, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.Transfer(3, 3, 4096); got != m.Net.Overhead {
		t.Errorf("self transfer = %v, want the overhead %v", got, m.Net.Overhead)
	}
	if got, want := tm.Transfer(0, 1, 4096), m.Net.Overhead+m.Net.LatencyPerHop+4096/m.Net.Bandwidth; got != want {
		t.Errorf("same-node transfer = %v, want one hop %v", got, want)
	}
}

// The end-to-end topology claim, functionally: the same mini-WRF run
// finishes in less virtual time under the multi-level fold than under
// the oblivious mapping, with identical fields.
func TestTopologyTimeModelMappingGain(t *testing.T) {
	cfg := nestwrf.NewDomain("parent", 64, 64)
	cfg.AddChild("nest1", 60, 48, 3, 2, 2)
	cfg.AddChild("nest2", 48, 36, 3, 30, 30)

	run := func(kind nestwrf.MapKind) *nestwrf.FunctionalOutput {
		out, err := nestwrf.RunFunctional(cfg, nestwrf.FunctionalOptions{
			Ranks:     32,
			Steps:     3,
			Strategy:  nestwrf.StrategyConcurrent,
			PointCost: 1e-6,
			TM:        topoModel(t, kind),
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	obl := run(nestwrf.MapOblivious)
	fold := run(nestwrf.MapMultiLevel)

	if d := obl.Parent.MaxDiff(fold.Parent); d != 0 {
		t.Errorf("mapping changed the forecast by %v", d)
	}
	t.Logf("virtual makespan: oblivious %.6f s, multilevel fold %.6f s", obl.MaxClock, fold.MaxClock)
	if fold.MaxClock >= obl.MaxClock {
		t.Errorf("fold makespan %.6f should beat oblivious %.6f", fold.MaxClock, obl.MaxClock)
	}
	if fold.AvgWait >= obl.AvgWait {
		t.Errorf("fold wait %.6f should beat oblivious %.6f", fold.AvgWait, obl.AvgWait)
	}
}

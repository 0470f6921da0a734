package netsim

import (
	"testing"

	"nestwrf/internal/torus"
)

// TestHotPathAllocationFree asserts the netsim inner loops allocate
// nothing in the steady state: a reused Network that has seen a phase
// of the same size runs Reset -> AddFlow xN -> FlowLoad xN, and the
// ad-hoc PathLoad/TransferTime queries, out of its own buffers. A
// regression here shows up as allocs_per_op on every planning
// workload, so it is enforced, not just benchmarked.
func TestHotPathAllocationFree(t *testing.T) {
	tor, err := torus.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{LatencyPerHop: 9e-7, Overhead: 8e-4, Bandwidth: 175e6}
	n, err := New(tor, p)
	if err != nil {
		t.Fatal(err)
	}
	// One phase: every node sends to its +x neighbour and to a far node.
	var flows [][2]torus.Coord
	for i := 0; i < tor.Nodes(); i++ {
		c := tor.CoordOf(i)
		flows = append(flows,
			[2]torus.Coord{c, tor.Neighbor(c, torus.DimX, 1)},
			[2]torus.Coord{c, tor.CoordOf((i + 293) % tor.Nodes())})
	}
	phase := func() {
		n.Reset()
		for _, f := range flows {
			n.AddFlow(f[0], f[1])
		}
		for i := range flows {
			if n.FlowLoad(i) < 1 || n.FlowHops(i) == 0 {
				t.Fatal("unexpected flow cost")
			}
		}
	}
	phase() // size the arena, the end offsets and the touched-links list

	if avg := testing.AllocsPerRun(20, phase); avg != 0 {
		t.Errorf("Reset+AddFlow+FlowLoad allocates %v allocs/op, want 0", avg)
	}
	a, b := flows[1][0], flows[1][1]
	n.PathLoad(a, b) // size the scratch buffer
	if avg := testing.AllocsPerRun(100, func() {
		if n.PathLoad(a, b) < 1 {
			t.Fatal("unexpected path load")
		}
	}); avg != 0 {
		t.Errorf("PathLoad allocates %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if n.TransferTime(a, b, 4096) <= 0 {
			t.Fatal("unexpected transfer time")
		}
	}); avg != 0 {
		t.Errorf("TransferTime allocates %v allocs/op, want 0", avg)
	}
}

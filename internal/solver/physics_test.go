package solver

import (
	"math"
	"testing"

	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

// run integrates a full-domain tile for the given steps and returns the
// final state.
func run(t *testing.T, n, steps int, p Params, init InitFunc) *State {
	t.Helper()
	st, err := RunSerial(n, n, steps, p, init)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// angularMomentum returns the total z angular momentum about the domain
// centre.
func angularMomentum(st *State) float64 {
	cx, cy := float64(st.NX-1)/2, float64(st.NY-1)/2
	var l float64
	for y := 0; y < st.NY; y++ {
		for x := 0; x < st.NX; x++ {
			i := st.At(x, y)
			rx, ry := float64(x)-cx, float64(y)-cy
			l += rx*st.HV[i] - ry*st.HU[i]
		}
	}
	return l
}

// With F > 0 a collapsing bump spins up rotation: the flow acquires
// negative (clockwise, anticyclonic-outflow) angular momentum, while
// the irrotational F = 0 collapse stays at zero by symmetry.
func TestCoriolisSpinsUpRotation(t *testing.T) {
	n, steps := 41, 120
	init := GaussianHill(n, n, 20, 20, 0.4, 4)
	still := run(t, n, steps, DefaultParams(), init)
	if l := angularMomentum(still); math.Abs(l) > 1e-9 {
		t.Errorf("no-rotation run has angular momentum %v", l)
	}
	p := DefaultParams()
	p.F = 0.5
	spun := run(t, n, steps, p, init)
	if l := angularMomentum(spun); l >= -1e-6 {
		t.Errorf("Coriolis run angular momentum = %v, want clearly negative (clockwise outflow)", l)
	}
}

// The Coriolis term rotates momentum without changing mass.
func TestCoriolisConservesMass(t *testing.T) {
	n := 31
	p := GeophysicalParams()
	init := GaussianHill(n, n, 15, 15, 0.3, 3)
	tile, err := NewTile(n, n, 0, 0, n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	tile.Fill(init)
	m0 := tile.Mass()
	for s := 0; s < 150; s++ {
		tile.SetReflective()
		tile.Step()
	}
	if m1 := tile.Mass(); math.Abs(m1-m0)/m0 > 1e-9 {
		t.Errorf("mass drifted under rotation: %v -> %v", m0, m1)
	}
}

// Friction damps kinetic energy faster than the frictionless run.
func TestDragDampsMotion(t *testing.T) {
	n, steps := 41, 200
	init := GaussianHill(n, n, 20, 20, 0.4, 4)
	free := run(t, n, steps, DefaultParams(), init)
	p := DefaultParams()
	p.Drag = 0.05
	damped := run(t, n, steps, p, init)
	ke := func(st *State) float64 {
		var k float64
		for i := range st.H {
			if st.H[i] > 0 {
				k += (st.HU[i]*st.HU[i] + st.HV[i]*st.HV[i]) / st.H[i]
			}
		}
		return k
	}
	if ke(damped) >= ke(free) {
		t.Errorf("drag did not damp: KE %v vs free %v", ke(damped), ke(free))
	}
	if ke(damped) <= 0 {
		t.Error("damped run should still be moving after 200 steps")
	}
}

// Rotation must not break the bit-exact serial/parallel equivalence:
// the Coriolis and drag terms are point-local.
func TestGeophysicalParallelMatchesSerial(t *testing.T) {
	nx, ny, steps := 33, 27, 50
	p := GeophysicalParams()
	init := GaussianHill(nx, ny, 16, 13, 0.4, 4)
	ref, err := RunSerial(nx, ny, steps, p, init)
	if err != nil {
		t.Fatal(err)
	}
	grid := vtopo.Grid{Px: 3, Py: 2}
	var got *State
	_, err = mpi.Run(grid.Size(), mpi.AlphaBeta{Alpha: 1e-6, Beta: 1e-9}, func(proc *mpi.Proc) error {
		c := proc.World()
		x0, y0, w, h := Decompose(nx, ny, grid, c.Rank())
		tile, err := NewTile(nx, ny, x0, y0, w, h, p)
		if err != nil {
			return err
		}
		tile.Fill(init)
		for s := 0; s < steps; s++ {
			if err := tile.Exchange(c, grid); err != nil {
				return err
			}
			tile.Step()
		}
		st, err := Gather(c, tile, nil)
		if err != nil {
			return err
		}
		if st != nil {
			got = st
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := ref.MaxDiff(got); d != 0 {
		t.Errorf("rotating parallel run differs from serial by %v", d)
	}
}

// GeophysicalParams must be stable over a long run.
func TestGeophysicalStability(t *testing.T) {
	st := run(t, 51, 600, GeophysicalParams(), GaussianHill(51, 51, 25, 25, 0.3, 5))
	for i, h := range st.H {
		if math.IsNaN(h) || h < 0.2 || h > 2.0 {
			t.Fatalf("cell %d: height %v unstable under rotation", i, h)
		}
	}
}

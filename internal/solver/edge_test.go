package solver

import (
	"math"
	"testing"

	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

// Degenerate domain shapes must integrate stably.
func TestOneDimensionalDomains(t *testing.T) {
	for _, dims := range [][2]int{{100, 1}, {1, 100}, {2, 50}} {
		st, err := RunSerial(dims[0], dims[1], 50, DefaultParams(),
			GaussianHill(dims[0], dims[1], float64(dims[0])/2, float64(dims[1])/2, 0.3, 5))
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		for i, h := range st.H {
			if math.IsNaN(h) || h <= 0 {
				t.Fatalf("%v: cell %d height %v", dims, i, h)
			}
		}
	}
}

// A tile of a single cell works (more ranks than rows/columns).
func TestSingleCellTiles(t *testing.T) {
	nx, ny := 6, 6
	grid := vtopo.Grid{Px: 6, Py: 6} // every rank owns exactly one cell
	p := DefaultParams()
	init := GaussianHill(nx, ny, 3, 3, 0.3, 1.5)
	ref, err := RunSerial(nx, ny, 20, p, init)
	if err != nil {
		t.Fatal(err)
	}
	var got *State
	_, err = mpi.Run(grid.Size(), mpi.AlphaBeta{Alpha: 1e-6, Beta: 1e-9}, func(proc *mpi.Proc) error {
		c := proc.World()
		x0, y0, w, h := Decompose(nx, ny, grid, c.Rank())
		tile, err := NewTile(nx, ny, x0, y0, w, h, p)
		if err != nil {
			return err
		}
		tile.Fill(init)
		for s := 0; s < 20; s++ {
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
		t.Errorf("single-cell tiles differ from serial by %v", d)
	}
}

// Zero water height must not divide by zero in the flux function.
func TestDryCellsHandled(t *testing.T) {
	tile, err := NewTile(10, 10, 0, 0, 10, 10, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tile.Fill(func(gx, gy int) (float64, float64, float64) {
		if gx < 5 {
			return 0, 0, 0 // dry region
		}
		return 1, 0, 0
	})
	for s := 0; s < 10; s++ {
		tile.SetReflective()
		tile.Step()
	}
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			var c [3]float64
			tile.Pack(c[:], x, y, 1, 1)
			if math.IsNaN(c[0]) || math.IsNaN(c[1]) || math.IsNaN(c[2]) {
				t.Fatalf("NaN at (%d,%d) after dry-cell run", x, y)
			}
		}
	}
}

// Extremely small time steps change almost nothing; the scheme is
// consistent as dt -> 0.
func TestConsistencyAsDtShrinks(t *testing.T) {
	n := 21
	init := GaussianHill(n, n, 10, 10, 0.2, 3)
	p := DefaultParams()
	p.Dt = 1e-8
	st, err := RunSerial(n, n, 1, p, init)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewState(n, n)
	tile, _ := NewTile(n, n, 0, 0, n, n, p)
	tile.Fill(init)
	tile.Interior(ref)
	// After one vanishing step, only the 4-point average smoothing of
	// Lax-Friedrichs remains; values stay within the initial range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, h := range ref.H {
		lo, hi = math.Min(lo, h), math.Max(hi, h)
	}
	for i, h := range st.H {
		if h < lo-1e-9 || h > hi+1e-9 {
			t.Fatalf("cell %d: %v outside initial range [%v, %v]", i, h, lo, hi)
		}
	}
}

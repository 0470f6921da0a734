package solver

import (
	"testing"

	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

// The flux-once kernel must reproduce the closure-based oracle kernel
// (reference_test.go) bit for bit: same arithmetic, same evaluation
// order. The table covers degenerate and production tile shapes, every
// combination of the Coriolis and drag terms (DefaultParams skips the
// source-term pass), and a dry patch whose cells take fillFluxLine's
// zero-flux branch.
func TestFastKernelMatchesReference(t *testing.T) {
	const steps = 40
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {5, 3}, {41, 33}, {99, 53}}
	params := map[string]func(*Params){
		"default": func(*Params) {},
		"F":       func(p *Params) { p.F = 0.1 },
		"Drag":    func(p *Params) { p.Drag = 0.01 },
		"F+Drag":  func(p *Params) { p.F, p.Drag = 0.1, 0.01 },
	}
	inits := map[string]func(nx, ny int) InitFunc{
		"hill": func(nx, ny int) InitFunc {
			return GaussianHill(nx, ny, float64(nx)/2, float64(ny)/2, 0.4, 5)
		},
		// Dry (h = 0) lower-left third and one cell of negative depth.
		"dry": func(nx, ny int) InitFunc {
			hill := GaussianHill(nx, ny, float64(nx)/2, float64(ny)/2, 0.4, 5)
			return func(gx, gy int) (float64, float64, float64) {
				switch {
				case gx == nx-1 && gy == ny-1 && nx*ny > 1:
					return -0.1, 0, 0
				case 3*gx <= nx && 3*gy <= ny:
					return 0, 0, 0
				}
				return hill(gx, gy)
			}
		},
	}
	for _, sh := range shapes {
		nx, ny := sh[0], sh[1]
		for pname, set := range params {
			for iname, mk := range inits {
				p := DefaultParams()
				set(&p)
				init := mk(nx, ny)
				run := func(step func(*Tile)) *State {
					tile, err := NewTile(nx, ny, 0, 0, nx, ny, p)
					if err != nil {
						t.Fatal(err)
					}
					tile.Fill(init)
					for s := 0; s < steps; s++ {
						tile.SetReflective()
						step(tile)
					}
					st := NewState(nx, ny)
					tile.Interior(st)
					return st
				}
				fast := run((*Tile).Step)
				slow := run((*Tile).stepLFReference)
				if d := fast.MaxDiff(slow); d != 0 {
					t.Errorf("%dx%d %s %s: fast kernel differs from reference by %v (want exactly 0)", nx, ny, pname, iname, d)
				}
			}
		}
	}
}

// Exchange (pooled pack buffers, owned sends, ordered receives) must
// produce the same fields and the same per-rank virtual clocks and wait
// times as the oracle Isend/Irecv exchange (reference_test.go).
func TestFastExchangeMatchesReference(t *testing.T) {
	nx, ny, steps := 37, 29, 40
	grid := vtopo.Grid{Px: 3, Py: 2}
	p := DefaultParams()
	init := GaussianHill(nx, ny, 18, 14, 0.4, 4)

	run := func(exchange func(*Tile, *mpi.Comm, vtopo.Grid) error) (*State, []*mpi.Proc) {
		var got *State
		procs, err := mpi.Run(grid.Size(), tm(), func(proc *mpi.Proc) error {
			c := proc.World()
			x0, y0, w, h := Decompose(nx, ny, grid, c.Rank())
			tile, err := NewTile(nx, ny, x0, y0, w, h, p)
			if err != nil {
				return err
			}
			tile.Fill(init)
			for s := 0; s < steps; s++ {
				if err := exchange(tile, c, grid); err != nil {
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
		return got, procs
	}
	fast, fastProcs := run((*Tile).Exchange)
	slow, slowProcs := run((*Tile).exchangeReference)
	if d := fast.MaxDiff(slow); d != 0 {
		t.Errorf("fast exchange differs from reference by %v (want exactly 0)", d)
	}
	for r := range fastProcs {
		if fastProcs[r].Clock() != slowProcs[r].Clock() || fastProcs[r].WaitTime() != slowProcs[r].WaitTime() {
			t.Errorf("rank %d: clock/wait (%v, %v) differ from reference (%v, %v)", r,
				fastProcs[r].Clock(), fastProcs[r].WaitTime(), slowProcs[r].Clock(), slowProcs[r].WaitTime())
		}
	}
}

// Steady-state halo exchange must be allocation-free: pack buffers are
// persistent, sends are pooled owned buffers, and received payloads are
// returned to the pool. The allocation counter is process-global, so
// rank 0 measures while the other ranks run the identical iteration
// sequence bare: their exchanges overlap rank 0's window (message
// dependencies keep the ranks in lockstep), so any allocation on any
// rank is caught, without testing machinery polluting the count.
func TestExchangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	nx, ny := 32, 24
	grid := vtopo.Grid{Px: 2, Py: 2}
	p := DefaultParams()
	init := GaussianHill(nx, ny, 16, 12, 0.4, 4)
	const runs = 10
	var avg float64
	_, err := mpi.Run(grid.Size(), tm(), func(proc *mpi.Proc) error {
		c := proc.World()
		x0, y0, w, h := Decompose(nx, ny, grid, c.Rank())
		tile, err := NewTile(nx, ny, x0, y0, w, h, p)
		if err != nil {
			return err
		}
		tile.Fill(init)
		iter := func() {
			if err := tile.Exchange(c, grid); err != nil {
				t.Error(err)
			}
			tile.Step()
		}
		for i := 0; i < 3; i++ {
			iter()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			avg = testing.AllocsPerRun(runs, iter)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun runs 1 warmup + runs
				iter()
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("%v allocs per exchange+step, want 0", avg)
	}
}

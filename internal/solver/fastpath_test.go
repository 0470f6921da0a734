package solver

import (
	"testing"

	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

// The flux-once kernel must reproduce the closure-based oracle kernel
// (reference_test.go) bit for bit: same arithmetic, same evaluation
// order.
func TestFastKernelMatchesReference(t *testing.T) {
	nx, ny, steps := 41, 33, 80
	p := DefaultParams()
	p.F = 0.1
	p.Drag = 0.01
	init := GaussianHill(nx, ny, 20, 16, 0.4, 5)

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
		t.Errorf("fast kernel differs from reference by %v (want exactly 0)", d)
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
			st, err := Gather(c, tile)
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

package wrfsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/solver"
	"nestwrf/internal/vtopo"
)

// A nested functional run must produce the same fields bit for bit on
// any rank count and under either strategy: the solver guarantees
// parallel==serial, boundary conditions are pure functions of parent
// cells, and feedback accumulates every parent cell's child block in
// canonical child-global order regardless of decomposition.
func TestRunBitIdenticalAcrossDecompositions(t *testing.T) {
	cfg := testConfig()
	runWith := func(ranks int, s Strategy) *Output {
		opt := baseOpts(s)
		opt.Ranks = ranks
		out, err := Run(cfg, opt)
		if err != nil {
			t.Fatalf("ranks=%d strategy=%v: %v", ranks, s, err)
		}
		return out
	}
	ref := runWith(1, Sequential)
	for _, tc := range []struct {
		ranks int
		s     Strategy
	}{{6, Sequential}, {32, Sequential}, {32, Concurrent}} {
		got := runWith(tc.ranks, tc.s)
		if d := ref.Parent.MaxDiff(got.Parent); d != 0 {
			t.Errorf("ranks=%d strategy=%v: parent differs from 1-rank run by %v (want exactly 0)", tc.ranks, tc.s, d)
		}
		for i := range ref.Nests {
			if d := ref.Nests[i].MaxDiff(got.Nests[i]); d != 0 {
				t.Errorf("ranks=%d strategy=%v: nest %d differs from 1-rank run by %v (want exactly 0)", tc.ranks, tc.s, i, d)
			}
		}
	}
}

// fieldsSHA256 hashes every field of a run's final states (parent, then
// nests in order; H, HU, HV; little-endian IEEE-754 bits).
func fieldsSHA256(out *Output) string {
	h := sha256.New()
	var b [8]byte
	for _, st := range append([]*solver.State{out.Parent}, out.Nests...) {
		for _, f := range [][]float64{st.H, st.HU, st.HV} {
			for _, v := range f {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The final fields of testConfig() are pinned to the hash recorded with
// the solver's closure kernel and Isend/Irecv exchange and the
// recompute-every-step coupling all selected (the parent of the commit
// that moved those oracles into the packages' reference_test.go files;
// both strategies hashed the same there too). The oracles themselves
// are now compared by direct call: solver's fastpath_test.go and
// TestCouplingMatchesReference.
func TestRunFastMatchesReference(t *testing.T) {
	const want = "8f8112d68b9cb089fe434371238c28b8ce31c4b1fc01476390b272da0938179c"
	for _, s := range []Strategy{Sequential, Concurrent} {
		out, err := Run(testConfig(), baseOpts(s))
		if err != nil {
			t.Fatal(err)
		}
		if got := fieldsSHA256(out); got != want {
			t.Errorf("strategy %v: fields hash to %s, want %s", s, got, want)
		}
	}
}

// couplingRank is one rank's state in the coupling harness: a 32x24
// parent on a 2x2 grid with one ratio-2 nest decomposed over the same
// four ranks, built by newNestPlan on the full rectangle, as Run builds a
// sequential-strategy nest.
type couplingRank struct {
	p      *mpi.Proc
	cfg    *nest.Domain
	grid   vtopo.Grid
	parent *solver.Tile
	nc     *nestCtx
}

// couplingHarness runs body on every rank of the harness world.
//
// The nest footprint straddles all four parent quadrants so that over a
// full coupling step (BC + feedback) every rank receives from another
// rank: the mutual blocking keeps the ranks in lockstep, bounding the
// payloads in flight to what a warmup already pooled. (The phases must
// be measured together: in the BC phase alone the northwest rank has no
// remote receive — its child tile's halo parents are its own parent
// cells by construction — so it would free-run ahead of the receivers'
// frees and draw fresh buffers. The run loop always executes both
// phases per step.)
func couplingHarness(t *testing.T, body func(r *couplingRank) error) []*mpi.Proc {
	t.Helper()
	cfg := nest.Root("parent", 32, 24)
	child := cfg.AddChild("nest", 16, 12, 2, 12, 8)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	grid := vtopo.Grid{Px: 2, Py: 2}
	np, err := newNestPlan(cfg, grid, 0, alloc.Rect{W: grid.Px, H: grid.Py})
	if err != nil {
		t.Fatal(err)
	}
	params := solver.DefaultParams()
	nestParams := params
	nestParams.Dt = params.Dt / float64(child.Ratio)
	nestParams.Dx = params.Dx / float64(child.Ratio)

	procs, err := mpi.Run(grid.Size(), mpi.AlphaBeta{Alpha: 1e-6, Beta: 1e-9}, func(p *mpi.Proc) error {
		world := p.World()
		me := world.Rank()
		px0, py0, pw, ph := solver.Decompose(cfg.NX, cfg.NY, grid, me)
		parent, err := solver.NewTile(cfg.NX, cfg.NY, px0, py0, pw, ph, params)
		if err != nil {
			return err
		}
		parent.Fill(solver.GaussianHill(cfg.NX, cfg.NY, 16, 12, 0.4, 4))

		x0, y0, w, h := solver.Decompose(child.NX, child.NY, grid, me)
		tile, err := solver.NewTile(child.NX, child.NY, x0, y0, w, h, nestParams)
		if err != nil {
			return err
		}
		tile.Fill(func(gx, gy int) (float64, float64, float64) {
			return initialParentValue(cfg, child.OffX+gx/child.Ratio, child.OffY+gy/child.Ratio)
		})
		nc := newNestCtx(np, me)
		nc.comm, nc.tile = world, tile
		return body(&couplingRank{p: p, cfg: cfg, grid: grid, parent: parent, nc: &nc})
	})
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

// Steady-state coupling must be allocation-free: plans are prebuilt,
// payloads come from the world pool, and the inboxes are fixed slots.
// The allocation counter is process-global, so rank 0 measures while
// the other ranks run the identical call sequence bare: their coupling
// work overlaps rank 0's window (message dependencies keep the ranks
// in lockstep), so any allocation on any rank is caught, without
// testing machinery polluting the count.
func TestCouplingZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const runs = 10
	var cplAvg float64
	couplingHarness(t, func(r *couplingRank) error {
		world := r.p.World()
		nc := r.nc
		couple := func() {
			if err := nc.exchange(world, "bc", tagBC+nc.idx, nc.bc, r.parent, nc.bcInbox); err != nil {
				t.Error(err)
			}
			nc.applyBC()
			release(world, nc.bcInbox)
			if err := nc.exchange(world, "fb", tagFeedback+nc.idx, nc.fb, nc.tile, nc.fbInbox); err != nil {
				t.Error(err)
			}
			nc.applyFeedback(r.parent)
			release(world, nc.fbInbox)
		}
		for i := 0; i < 3; i++ {
			couple()
		}
		if err := world.Barrier(); err != nil {
			return err
		}
		if world.Rank() == 0 {
			cplAvg = testing.AllocsPerRun(runs, couple)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun runs 1 warmup + runs
				couple()
			}
		}
		return world.Barrier()
	})
	if cplAvg != 0 {
		t.Errorf("BC and feedback exchange, apply and release: %v allocs per coupling step, want 0", cplAvg)
	}
}

// initialParentValue evaluates the parent's initial condition, as
// rankMain seeds a nest before the first parent data arrives.
func initialParentValue(cfg *nest.Domain, gx, gy int) (float64, float64, float64) {
	f := solver.GaussianHill(cfg.NX, cfg.NY, float64(cfg.NX)/2, float64(cfg.NY)/2, 0.4, float64(cfg.NX)/8)
	return f(gx, gy)
}

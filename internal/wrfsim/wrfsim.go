// Package wrfsim is the functional weather-simulation substrate: a
// miniature WRF that integrates a parent shallow-water domain with
// nested sibling domains on the mpi runtime, under either the default
// sequential strategy (every nest on all ranks, one after another) or
// the paper's concurrent strategy (siblings simultaneously on disjoint
// processor partitions via communicator splits).
//
// Both strategies compute the same physics: each parent step, every
// nest receives boundary conditions interpolated from the parent
// (moved with real point-to-point messages between the owning ranks),
// advances Ratio sub-steps, and feeds its solution back to the parent
// cells it overlaps. Integration tests verify that the two strategies
// produce matching fields while the concurrent strategy finishes in
// less virtual time — the paper's claim, demonstrated end to end.
package wrfsim

import (
	"errors"
	"fmt"
	"strconv"

	"nestwrf/internal/alloc"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/metrics"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/output"
	"nestwrf/internal/solver"
	"nestwrf/internal/telemetry"
	"nestwrf/internal/vtopo"
)

// Strategy selects sequential or concurrent sibling execution.
type Strategy int

// Strategies.
const (
	Sequential Strategy = iota
	Concurrent
)

// Options configure a functional run.
type Options struct {
	Ranks    int
	Steps    int // parent steps
	Strategy Strategy
	// TM is the virtual transfer-time model (default: 1us + 1ns/byte).
	TM mpi.TimeModel
	// PointCost is the virtual compute time per grid point per sub-step.
	PointCost float64
	// Weights sets the concurrent partition proportions (default:
	// sibling point counts).
	Weights []float64
	// Solver parameters (default solver.DefaultParams, with the nest
	// time step scaled by 1/Ratio).
	Params solver.Params
	// OutputEverySteps makes every domain write a forecast record every
	// N parent steps: the fields are gathered to each domain
	// communicator's root with real messages and the write cost is
	// charged to the writer's clock via the IO model. Zero disables
	// output.
	OutputEverySteps int
	// IO is the write-cost model (defaults to a PnetCDF-like profile).
	IO iosim.Params
	// IOMode selects collective or split writes.
	IOMode iosim.Mode
	// Tracer, when non-nil, records one driver-layer span for the run
	// (annotated with the per-phase wall-clock breakdown from the mpi
	// accounting) plus phase-layer coupling spans on rank 0. TraceParent
	// links the run span under a caller span; zero makes it a root. Nil
	// keeps the functional hot path allocation-identical to an
	// uninstrumented build.
	Tracer      *telemetry.Tracer
	TraceParent telemetry.SpanID
	// Metrics, when non-nil, records runtime gauges about the run into
	// the registry (currently the mpi payload-pool counters, as
	// mpi_payload_pool_*).
	Metrics *metrics.Registry
}

// Output is the result of a run.
type Output struct {
	Parent *solver.State
	Nests  []*solver.State
	// MaxClock is the virtual makespan (slowest rank's clock).
	MaxClock float64
	// AvgWait and MaxWait aggregate the per-rank MPI wait times.
	AvgWait, MaxWait float64
	// Phases is the per-phase breakdown of the run aggregated across
	// ranks (parent steps, per-nest sub-steps, coupling, output,
	// collection): where the virtual time went, and the message traffic
	// of each phase.
	Phases []mpi.PhaseTotal
	// Snapshots are the forecast records written during the run (in
	// write order), when OutputEverySteps is enabled.
	Snapshots []output.Snapshot
	// Pools is the run's final mpi payload-pool snapshot (hit rate,
	// retained buffers), for capacity diagnostics at high rank counts.
	Pools mpi.PoolStats
}

// Errors.
var (
	ErrTooDeep  = errors.New("wrfsim: functional mode supports one nesting level")
	ErrBadSteps = errors.New("wrfsim: steps must be positive")
)

// coupling tags (user space, distinct from solver halo tags).
const (
	tagBC       = 1000 // parent -> child boundary conditions (+child index)
	tagFeedback = 2000 // child -> parent feedback (+child index)
	tagState    = 3000 // final state shipping (+domain index)
)

// Run executes the functional simulation and gathers final states.
func Run(cfg *nest.Domain, opt Options) (out *Output, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Depth() > 1 {
		return nil, ErrTooDeep
	}
	if opt.Steps <= 0 {
		return nil, ErrBadSteps
	}
	if opt.TM == nil {
		opt.TM = mpi.AlphaBeta{Alpha: 1e-6, Beta: 1e-9}
	}
	if opt.PointCost == 0 {
		opt.PointCost = 1e-7
	}
	if opt.Params == (solver.Params{}) {
		opt.Params = solver.DefaultParams()
	}
	if opt.OutputEverySteps > 0 && opt.IO == (iosim.Params{}) {
		opt.IO = iosim.Params{
			BaseLatency:         5e-3,
			PerWriterOverhead:   3.5e-4,
			AggregateBandwidth:  2.0e9,
			PerProcessBandwidth: 8e6,
		}
	}

	var sp *telemetry.ActiveSpan
	if opt.Tracer.Recording() {
		sp = opt.Tracer.Start(opt.TraceParent, "wrfsim.run", telemetry.LayerDriver)
		sp.Annotate("ranks", strconv.Itoa(opt.Ranks))
		sp.Annotate("steps", strconv.Itoa(opt.Steps))
		sp.Annotate("strategy", map[Strategy]string{Sequential: "sequential", Concurrent: "concurrent"}[opt.Strategy])
		opt.TraceParent = sp.ID() // rank-0 coupling spans parent here
		defer func() {
			if err != nil {
				sp.Annotate("error", err.Error())
			} else if out != nil {
				// The honest per-phase breakdown: real wall-clock accrued
				// by the mpi phase accounting, aggregated across ranks.
				for _, ph := range out.Phases {
					sp.Annotate("wall:"+ph.Name, strconv.FormatFloat(ph.Sum.Wall, 'g', -1, 64))
				}
				sp.Annotate("virtual_makespan", strconv.FormatFloat(out.MaxClock, 'g', -1, 64))
			}
			sp.End()
		}()
	}

	grid, err := machine.GridFor(opt.Ranks)
	if err != nil {
		return nil, err
	}

	// Concurrent partitions (computed identically on every rank).
	var rects []alloc.Rect
	if opt.Strategy == Concurrent && len(cfg.Children) > 0 {
		weights := opt.Weights
		if weights == nil {
			weights = make([]float64, len(cfg.Children))
			for i, c := range cfg.Children {
				weights[i] = float64(c.Points())
			}
		}
		rects, err = alloc.Partition(weights, grid.Px, grid.Py)
		if err != nil {
			return nil, err
		}
	}

	// Coupling plans and nest process grids depend only on the domain
	// geometry and the decomposition, so they are built once here and
	// shared read-only by every rank.
	plans := make([]*nestPlans, len(cfg.Children))
	// Sequential nests all share one identity rank list and one
	// identity local-rank index — O(ranks) total, not per nest.
	var idWorld []int
	var idLocal []int32
	if opt.Strategy == Sequential && len(cfg.Children) > 0 {
		idWorld = make([]int, grid.Size())
		idLocal = make([]int32, grid.Size())
		for r := range idWorld {
			idWorld[r] = r
			idLocal[r] = int32(r)
		}
	}
	for i, c := range cfg.Children {
		np := &nestPlans{phase: "nest:" + c.Name}
		switch opt.Strategy {
		case Sequential:
			np.grid = grid
			np.world = idWorld
			np.localOf = idLocal
		case Concurrent:
			sg, err := vtopo.NewSubgrid(grid, rects[i])
			if err != nil {
				return nil, err
			}
			np.grid = sg.Grid()
			np.world = sg.Ranks()
			np.localOf = make([]int32, opt.Ranks)
			for r := range np.localOf {
				np.localOf[r] = -1
			}
			for l, wr := range np.world {
				np.localOf[wr] = int32(l)
			}
		}
		np.bc = newBCPlan(bcPattern(cfg, grid, c, np.grid, np.world), opt.Ranks)
		np.fb = buildFBPlan(cfg, grid, c, np.grid, np.world)
		plans[i] = np
	}

	out = &Output{Nests: make([]*solver.State, len(cfg.Children))}
	ro := &runOutput{Output: out}
	procs, err := mpi.Run(opt.Ranks, opt.TM, func(p *mpi.Proc) error {
		return rankMain(p, cfg, grid, plans, opt, ro)
	})
	if err != nil {
		return nil, err
	}
	sortSnapshots(out.Snapshots)
	out.Phases = mpi.AggregatePhases(procs)
	out.Pools = procs[0].PoolStats()
	if opt.Metrics != nil {
		recordPoolMetrics(opt.Metrics, out.Pools)
	}
	var sum float64
	for _, p := range procs {
		if p.Clock() > out.MaxClock {
			out.MaxClock = p.Clock()
		}
		if p.WaitTime() > out.MaxWait {
			out.MaxWait = p.WaitTime()
		}
		sum += p.WaitTime()
	}
	out.AvgWait = sum / float64(len(procs))
	return out, nil
}

// nestPlans is the shared precomputed per-nest state: the nest's
// process grid and the coupling plans, identical on every rank and
// read-only during the run.
type nestPlans struct {
	grid    vtopo.Grid // the nest's process grid
	world   []int      // world rank of each nest-local rank
	localOf []int32    // world rank -> nest-local rank, -1 if not a member
	phase   string     // phase label ("nest:" + name)
	bc      *bcPlan
	fb      *fbPlan
}

// nestCtx holds one rank's view of one nested domain.
type nestCtx struct {
	d     *nest.Domain
	idx   int
	comm  *mpi.Comm    // sub-communicator (nil if this rank not a member)
	grid  vtopo.Grid   // the nest's process grid
	world []int        // world rank of each nest-local rank
	tile  *solver.Tile // nil if not a member
	bc    []bcCell     // parent-interpolated boundary values (members only)
	phase string       // precomputed phase label ("nest:" + name)

	// Coupling plans shared across ranks (see nestPlans), plus this
	// rank's per-step feedback inbox stash (sized by the rank's own
	// incoming-transfer count, so total stash memory is O(world), not
	// O(world²)).
	bcPlan     *bcPlan
	fbPlan     *fbPlan
	fbPayloads [][]float64

	// tracer/span, when set (rank 0 of a traced run only), wrap each
	// coupling exchange in a phase-layer span under the run span. The
	// zero value keeps the coupled step allocation-free.
	tracer *telemetry.Tracer
	span   telemetry.SpanID
}

// bcCell is one child halo cell awaiting a parent value.
type bcCell struct {
	lx, ly    int // local halo coordinates in the child tile
	h, hu, hv float64
}

func rankMain(p *mpi.Proc, cfg *nest.Domain, grid vtopo.Grid, plans []*nestPlans, opt Options, out *runOutput) error {
	world := p.World()
	me := world.Rank()
	p.BeginPhase("init")

	// Parent tile on the full grid.
	pinit := solver.GaussianHill(cfg.NX, cfg.NY, float64(cfg.NX)/2, float64(cfg.NY)/2, 0.4, float64(cfg.NX)/8)
	px0, py0, pw, ph := solver.Decompose(cfg.NX, cfg.NY, grid, me)
	parent, err := solver.NewTile(cfg.NX, cfg.NY, px0, py0, pw, ph, opt.Params)
	if err != nil {
		return err
	}
	parent.Fill(pinit)

	// Build per-nest contexts from the shared plans (every rank holds
	// one per nest, members or not: non-members still source boundary
	// conditions from their parent cells and sink feedback into them).
	nests := make([]*nestCtx, len(cfg.Children))
	ctxs := make([]nestCtx, len(cfg.Children)) // one slab, not one object per nest per rank
	for i, c := range cfg.Children {
		np := plans[i]
		nc := &ctxs[i]
		*nc = nestCtx{
			d: c, idx: i,
			grid: np.grid, world: np.world, phase: np.phase,
			bcPlan: np.bc, fbPlan: np.fb,
			fbPayloads: make([][]float64, np.fb.inboxLen[me]),
		}
		if me == 0 && opt.Tracer.Recording() {
			// Only rank 0 emits coupling spans: one tracing rank keeps
			// the export readable and the buffer O(steps), while the
			// other ranks run the untraced (zero-alloc) path.
			nc.tracer = opt.Tracer
			nc.span = opt.TraceParent
		}
		// Local rank within the nest, if a member.
		local := int(np.localOf[me])
		switch opt.Strategy {
		case Sequential:
			nc.comm = world
		case Concurrent:
			color := -1
			if local >= 0 {
				color = i
			}
			sub, err := world.Split(color, me)
			if err != nil {
				return err
			}
			if color < 0 {
				// Not a member of this nest; still participates in coupling.
				nests[i] = nc
				continue
			}
			nc.comm = sub
		}
		// Member: build the nest tile.
		if local != nc.comm.Rank() {
			return fmt.Errorf("wrfsim: local rank mismatch: %d vs %d", local, nc.comm.Rank())
		}
		nestParams := opt.Params
		nestParams.Dt = opt.Params.Dt / float64(c.Ratio)
		nestParams.Dx = opt.Params.Dx / float64(c.Ratio)
		x0, y0, w, h := solver.Decompose(c.NX, c.NY, nc.grid, local)
		tile, err := solver.NewTile(c.NX, c.NY, x0, y0, w, h, nestParams)
		if err != nil {
			return err
		}
		// The nest starts from the parent field sampled at its footprint.
		tile.Fill(func(gx, gy int) (float64, float64, float64) {
			return pinit(c.OffX+gx/c.Ratio, c.OffY+gy/c.Ratio)
		})
		nc.tile = tile
		nests[i] = nc
	}

	// Main loop.
	for step := 0; step < opt.Steps; step++ {
		// Parent step.
		p.BeginPhase("parent")
		if err := parent.Exchange(world, grid); err != nil {
			return err
		}
		p.Compute(opt.PointCost * float64(pw*ph))
		parent.Step()

		// Boundary conditions for every nest, moved parent-owner ->
		// child-owner.
		p.BeginPhase("coupling")
		for _, nc := range nests {
			if err := exchangeBC(world, parent, nc); err != nil {
				return err
			}
		}

		// Nest sub-steps.
		switch opt.Strategy {
		case Sequential:
			for _, nc := range nests {
				if err := nestSubsteps(p, nc, opt); err != nil {
					return err
				}
			}
		case Concurrent:
			for _, nc := range nests {
				if nc.tile != nil {
					if err := nestSubsteps(p, nc, opt); err != nil {
						return err
					}
				}
			}
		}

		// Feedback child -> parent.
		p.BeginPhase("coupling")
		for _, nc := range nests {
			if err := exchangeFeedback(world, parent, nc); err != nil {
				return err
			}
		}

		// Forecast output.
		if opt.OutputEverySteps > 0 && (step+1)%opt.OutputEverySteps == 0 {
			p.BeginPhase("output")
			if err := writeOutputs(p, world, grid, parent, nests, cfg, opt, step+1, out); err != nil {
				return err
			}
		}
	}

	// Gather final states at world rank 0.
	p.BeginPhase("collect")
	if err := collectStates(world, grid, parent, nests, out.Output); err != nil {
		return err
	}
	return nil
}

// recordPoolMetrics publishes a run's payload-pool snapshot as gauges.
func recordPoolMetrics(reg *metrics.Registry, ps mpi.PoolStats) {
	reg.Gauge("mpi_payload_pool_hits").Set(float64(ps.Hits))
	reg.Gauge("mpi_payload_pool_misses").Set(float64(ps.Misses))
	reg.Gauge("mpi_payload_pool_frees").Set(float64(ps.Frees))
	reg.Gauge("mpi_payload_pool_drops").Set(float64(ps.Drops))
	reg.Gauge("mpi_payload_pool_buffers").Set(float64(ps.Buffers))
	reg.Gauge("mpi_payload_pool_bytes").Set(float64(ps.Bytes))
	reg.Gauge("mpi_payload_pool_hit_rate").Set(ps.HitRate())
}

// nestSubsteps advances one nest Ratio sub-steps with its stored
// boundary conditions applied after every halo exchange.
func nestSubsteps(p *mpi.Proc, nc *nestCtx, opt Options) error {
	p.BeginPhase(nc.phase)
	t := nc.tile
	cells := float64(t.W * t.H)
	for s := 0; s < nc.d.Ratio; s++ {
		if err := t.Exchange(nc.comm, nc.grid); err != nil {
			return err
		}
		for _, b := range nc.bc {
			t.SetHaloCell(b.lx, b.ly, b.h, b.hu, b.hv)
		}
		p.Compute(opt.PointCost * cells)
		t.Step()
	}
	return nil
}

// Package wrfsim is the functional weather-simulation substrate, the
// second executor of a driver.Plan: a miniature WRF that integrates a
// parent shallow-water domain with nested sibling domains on the mpi
// runtime, either every nest on all ranks in turn (Sequential, default
// WRF) or the siblings at once on the plan's disjoint rectangles of the
// process grid via communicator splits (Concurrent, the paper's).
//
// Both strategies compute the same physics: each parent step, every
// nest receives boundary conditions interpolated from the parent
// (moved with real point-to-point messages between the owning ranks),
// advances Ratio sub-steps, and feeds its solution back to the parent
// cells it overlaps. Which rank owns a cell and how a rectangle of
// cells becomes a payload are solver's (Decompose and its inverse
// Owner, Tile.Pack): the coupling plans only choose the rectangles.
// Integration tests verify that the two strategies produce matching
// fields while the concurrent strategy finishes in less virtual time —
// the paper's claim, demonstrated end to end.
package wrfsim

import (
	"errors"
	"fmt"
	"strconv"

	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
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
type Strategy = driver.Strategy

// Strategies: driver's, for callers that still spell them here.
const (
	Sequential = driver.Sequential
	Concurrent = driver.Concurrent
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
	// Rects are a driver.Plan's sibling rectangles, which must tile the
	// machine.GridFor(Ranks) grid; they place the nests under Concurrent
	// only. Nil runs Algorithm 1 on the siblings' point counts.
	Rects []alloc.Rect
	// Solver parameters (default solver.DefaultParams, with the nest
	// time step scaled by 1/Ratio).
	Params solver.Params
	// OutputEverySteps makes every domain write a forecast record every
	// N parent steps: the fields are gathered to each domain
	// communicator's root with real messages and the collective write
	// cost of ioModel is charged to the writers' clocks. Zero disables
	// output.
	OutputEverySteps int
	// Tracer, when non-nil, records one root driver-layer span for the
	// run (annotated with the per-phase wall-clock breakdown from the
	// mpi accounting) plus phase-layer coupling spans on rank 0 under
	// it. Nil keeps the functional hot path allocation-identical to an
	// uninstrumented build.
	Tracer *telemetry.Tracer
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
	// Snapshots are the forecast records written during the run, when
	// OutputEverySteps is enabled: one per domain and output event,
	// ordered by step and then domain name. A record keeps the size and
	// checksum of its encoding, not the fields.
	Snapshots []output.Record
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
	if opt.Strategy != Sequential && opt.Strategy != Concurrent {
		return nil, fmt.Errorf("%w: %v", driver.ErrBadOption, opt.Strategy)
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

	var sp *telemetry.ActiveSpan
	var runSpan telemetry.SpanID // rank-0 coupling spans parent here
	if opt.Tracer.Recording() {
		sp = opt.Tracer.Start(0, "wrfsim.run", telemetry.LayerDriver)
		sp.Annotate("ranks", strconv.Itoa(opt.Ranks))
		sp.Annotate("steps", strconv.Itoa(opt.Steps))
		sp.Annotate("strategy", opt.Strategy.String())
		runSpan = sp.ID()
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
	plans, err := nestPlans(cfg, grid, opt)
	if err != nil {
		return nil, err
	}

	out = &Output{Nests: make([]*solver.State, len(cfg.Children))}
	if opt.OutputEverySteps > 0 {
		out.Snapshots = make([]output.Record, opt.Steps/opt.OutputEverySteps*(1+len(cfg.Children)))
	}
	procs, err := mpi.Run(opt.Ranks, opt.TM, func(p *mpi.Proc) error {
		return rankMain(p, cfg, grid, plans, opt, runSpan, out)
	})
	if err != nil {
		return nil, err
	}
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

// nestPlans builds every nest's shared state on its rectangle of the
// world process grid: the whole grid under Sequential; under Concurrent
// opt.Rects, or by default the siblings' Algorithm 1 partition
// (computed identically on every rank).
func nestPlans(cfg *nest.Domain, grid vtopo.Grid, opt Options) ([]*nestPlan, error) {
	rects := opt.Rects
	if rects != nil {
		if len(rects) != len(cfg.Children) {
			return nil, fmt.Errorf("%w: %d rectangles for %d siblings", driver.ErrBadOption, len(rects), len(cfg.Children))
		}
		if err := alloc.Validate(rects, grid.Px, grid.Py); err != nil {
			return nil, fmt.Errorf("%w: %w", driver.ErrBadOption, err)
		}
	}
	if opt.Strategy == Sequential || len(cfg.Children) == 0 {
		rects = make([]alloc.Rect, len(cfg.Children))
		for i := range rects {
			rects[i] = alloc.Rect{W: grid.Px, H: grid.Py}
		}
	} else if rects == nil {
		weights := make([]float64, len(cfg.Children))
		for i, c := range cfg.Children {
			weights[i] = float64(c.Points())
		}
		var err error
		if rects, err = alloc.Partition(weights, grid.Px, grid.Py); err != nil {
			return nil, err
		}
	}
	plans := make([]*nestPlan, len(rects))
	for i, rect := range rects {
		np, err := newNestPlan(cfg, grid, i, rect)
		if err != nil {
			return nil, err
		}
		plans[i] = np
	}
	return plans, nil
}

// nestPlan is one nest's shared state: its rectangle of the world
// process grid, the process grid and world ranks that rectangle
// covers, and the coupling plans. It depends only on the domain
// geometry and the decomposition, so Run builds it once and every rank
// reads it.
type nestPlan struct {
	d      *nest.Domain
	idx    int
	rect   alloc.Rect // the nest's rectangle of the world process grid
	grid   vtopo.Grid // the nest's process grid
	world  []int      // world rank of each nest-local rank
	phase  string     // phase label ("nest:" + name)
	bc, fb *couplingPlan
}

// newNestPlan builds child i's shared state on rect of grid.
func newNestPlan(cfg *nest.Domain, grid vtopo.Grid, i int, rect alloc.Rect) (*nestPlan, error) {
	sg, err := vtopo.NewSubgrid(grid, rect)
	if err != nil {
		return nil, err
	}
	c := cfg.Children[i]
	np := &nestPlan{d: c, idx: i, rect: rect, grid: sg.Grid(), world: sg.Ranks(), phase: "nest:" + c.Name}
	np.bc = buildBCPlan(cfg, grid, c, np.grid, np.world)
	np.fb = buildFBPlan(cfg, grid, c, np.grid, np.world)
	return np, nil
}

// local returns the nest-local rank of world rank r of grid, or -1 if
// r lies outside the nest's rectangle.
func (np *nestPlan) local(grid vtopo.Grid, r int) int {
	x, y := grid.Coord(r)
	rc := np.rect
	if x < rc.X || x >= rc.X+rc.W || y < rc.Y || y >= rc.Y+rc.H {
		return -1
	}
	return (y-rc.Y)*rc.W + x - rc.X
}

// nestCtx holds one rank's view of one nested domain.
type nestCtx struct {
	*nestPlan
	me    int           // world rank
	comm  *mpi.Comm     // sub-communicator (nil if this rank not a member)
	tile  *solver.Tile  // nil if not a member
	state *solver.State // the gathered nest on its communicator root
	// bcInbox and fbInbox are this rank's per-step payload stashes, one
	// slot per incoming transfer of each direction, so total stash
	// memory is O(world), not O(world²).
	bcInbox, fbInbox [][]float64

	// tracer/span, when set (rank 0 of a traced run only), wrap each
	// coupling exchange in a phase-layer span under the run span. The
	// zero value keeps the coupled step allocation-free.
	tracer *telemetry.Tracer
	span   telemetry.SpanID
}

// newNestCtxs starts world rank me's view of every nest: the contexts
// are one slab, and every inbox of both directions is carved from
// another, sized from the plans, so a rank's coupling state is two heap
// objects whatever the number of nests.
func newNestCtxs(plans []*nestPlan, me int) []nestCtx {
	n := 0
	for _, np := range plans {
		n += np.bc.inboxLen[me] + np.fb.inboxLen[me]
	}
	inbox := make([][]float64, n)
	ctxs := make([]nestCtx, len(plans))
	for i, np := range plans {
		nb, nf := np.bc.inboxLen[me], np.fb.inboxLen[me]
		ctxs[i] = nestCtx{nestPlan: np, me: me, bcInbox: inbox[:nb:nb], fbInbox: inbox[nb : nb+nf : nb+nf]}
		inbox = inbox[nb+nf:]
	}
	return ctxs
}

func rankMain(p *mpi.Proc, cfg *nest.Domain, grid vtopo.Grid, plans []*nestPlan, opt Options, runSpan telemetry.SpanID, out *Output) error {
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
	var pstate *solver.State // the gathered parent on world rank 0

	// Build per-nest contexts on the shared plans (every rank holds one
	// per nest, members or not: non-members still source boundary
	// conditions from their parent cells and sink feedback into them).
	nests := newNestCtxs(plans, me)
	for i, np := range plans {
		nc := &nests[i]
		if me == 0 && opt.Tracer.Recording() {
			// Only rank 0 emits coupling spans: one tracing rank keeps
			// the export readable and the buffer O(steps), while the
			// other ranks run the untraced (zero-alloc) path.
			nc.tracer = opt.Tracer
			nc.span = runSpan
		}
		local := np.local(grid, me)
		comm := world
		if opt.Strategy == Concurrent {
			color := -1
			if local >= 0 {
				color = i
			}
			if comm, err = world.Split(color, me); err != nil {
				return err
			}
		}
		if local < 0 {
			continue // not a member of this nest; still participates in coupling
		}
		if local != comm.Rank() {
			return fmt.Errorf("wrfsim: local rank mismatch: %d vs %d", local, comm.Rank())
		}
		// Member: build the nest tile.
		c := np.d
		nestParams := opt.Params
		nestParams.Dt = opt.Params.Dt / float64(c.Ratio)
		nestParams.Dx = opt.Params.Dx / float64(c.Ratio)
		x0, y0, w, h := solver.Decompose(c.NX, c.NY, np.grid, local)
		tile, err := solver.NewTile(c.NX, c.NY, x0, y0, w, h, nestParams)
		if err != nil {
			return err
		}
		// The nest starts from the parent field sampled at its footprint.
		tile.Fill(func(gx, gy int) (float64, float64, float64) {
			return pinit(c.OffX+gx/c.Ratio, c.OffY+gy/c.Ratio)
		})
		nc.comm, nc.tile = comm, tile
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
		for i := range nests {
			nc := &nests[i]
			if err := nc.exchange(world, "bc", tagBC+nc.idx, nc.bc, parent, nc.bcInbox); err != nil {
				return err
			}
		}

		// Nest sub-steps: each nest this rank holds a tile of.
		for i := range nests {
			if nc := &nests[i]; nc.tile != nil {
				if err := nestSubsteps(p, nc, opt); err != nil {
					return err
				}
			}
		}

		// Feedback child -> parent.
		p.BeginPhase("coupling")
		for i := range nests {
			nc := &nests[i]
			if err := nc.exchange(world, "fb", tagFeedback+nc.idx, nc.fb, nc.tile, nc.fbInbox); err != nil {
				return err
			}
			nc.applyFeedback(parent)
			release(world, nc.fbInbox)
		}

		// Forecast output.
		if every := opt.OutputEverySteps; every > 0 && (step+1)%every == 0 {
			p.BeginPhase("output")
			n, e := len(nests)+1, (step+1)/every-1
			if err := writeOutputs(p, world, parent, &pstate, nests, cfg, step+1, out.Snapshots[e*n:(e+1)*n]); err != nil {
				return err
			}
		}
	}

	// Gather final states at world rank 0.
	p.BeginPhase("collect")
	if err := collectStates(world, parent, pstate, nests, out); err != nil {
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

// nestSubsteps advances one nest Ratio sub-steps with the boundary
// conditions in its BC inbox applied after every halo exchange, then
// releases the inbox.
func nestSubsteps(p *mpi.Proc, nc *nestCtx, opt Options) error {
	p.BeginPhase(nc.phase)
	t := nc.tile
	cells := float64(t.W * t.H)
	for s := 0; s < nc.d.Ratio; s++ {
		if err := t.Exchange(nc.comm, nc.grid); err != nil {
			return err
		}
		nc.applyBC()
		p.Compute(opt.PointCost * cells)
		t.Step()
	}
	release(nc.comm, nc.bcInbox)
	return nil
}

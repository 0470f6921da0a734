// Package driver orchestrates complete simulated WRF runs and
// implements the two execution strategies the paper compares
// (Section 3): the default strategy, which integrates every nested
// simulation sequentially on the full processor set, and the proposed
// concurrent strategy, which partitions the virtual processor grid
// among the siblings using predicted execution times and runs them
// simultaneously on sub-communicators, optionally with topology-aware
// mappings on the torus.
package driver

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"nestwrf/internal/alloc"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/metrics"
	"nestwrf/internal/model"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/predict"
	"nestwrf/internal/stats"
	"nestwrf/internal/telemetry"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// Strategy selects how sibling nests are executed.
type Strategy int

// Execution strategies.
const (
	// Sequential is WRF's default: each nest in turn on all processors.
	Sequential Strategy = iota
	// Concurrent is the paper's strategy: siblings simultaneously on
	// disjoint rectangular processor partitions.
	Concurrent
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "sequential"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// MapKind selects the rank-to-torus mapping.
type MapKind int

// Mappings (Section 3.3).
const (
	MapSequential MapKind = iota // topology-oblivious default (Fig. 5b)
	MapTXYZ                      // Blue Gene's TXYZ ordering
	MapPartition                 // partition mapping (Fig. 6a)
	MapMultiLevel                // multi-level folded mapping (Fig. 6b)
)

// String implements fmt.Stringer.
func (k MapKind) String() string {
	switch k {
	case MapSequential:
		return "oblivious"
	case MapTXYZ:
		return "txyz"
	case MapPartition:
		return "partition"
	case MapMultiLevel:
		return "multilevel"
	}
	return fmt.Sprintf("MapKind(%d)", int(k))
}

// AllocPolicy selects how sibling partitions are sized.
type AllocPolicy int

// Allocation policies (Sections 3.2 and 4.6).
const (
	// AllocPredicted: Algorithm 1 with execution-time ratios from the
	// interpolation-based performance model.
	AllocPredicted AllocPolicy = iota
	// AllocNaivePoints: consecutive strips proportional to point counts.
	AllocNaivePoints
	// AllocEqual: equal strips regardless of workload.
	AllocEqual
	// AllocStripsPredicted: consecutive strips sized by the predicted
	// execution times — the shape ablation: same weights as
	// AllocPredicted but without Algorithm 1's square-like bisection.
	AllocStripsPredicted
)

// String implements fmt.Stringer.
func (p AllocPolicy) String() string {
	switch p {
	case AllocPredicted:
		return "predicted"
	case AllocNaivePoints:
		return "naive-points"
	case AllocEqual:
		return "equal"
	case AllocStripsPredicted:
		return "strips-predicted"
	}
	return fmt.Sprintf("AllocPolicy(%d)", int(p))
}

// Options configure a simulated run.
type Options struct {
	Machine  machine.Machine
	Ranks    int
	Strategy Strategy
	MapKind  MapKind
	Alloc    AllocPolicy

	// IOMode and OutputEverySteps control the I/O model: every
	// OutputEverySteps parent iterations, each domain writes a forecast
	// file. Zero disables I/O.
	IOMode           iosim.Mode
	OutputEverySteps int

	// NoContention disables the link-sharing congestion model (every
	// message sees full link bandwidth). Used by the contention
	// ablation experiment.
	NoContention bool

	// Metrics, when non-nil, receives the run's instrumentation
	// (per-phase time breakdowns, link congestion, I/O volumes). Nil —
	// the default — keeps all metric collection off the hot path.
	Metrics *metrics.Registry

	// Tracer, when non-nil, receives hierarchical wall-clock spans: one
	// driver-layer span for the run, with a phase-layer child per phase
	// cost evaluation. TraceParent links the run span under a caller
	// span (a plan-cache lookup, a campaign member); zero makes it a
	// root. A nil Tracer is a zero-alloc no-op, and neither field is
	// part of any plan-cache key.
	Tracer      *telemetry.Tracer
	TraceParent telemetry.SpanID
}

// DomainMetrics reports the per-sibling timings behind Figs. 9 and 10.
type DomainMetrics struct {
	Name string
	// Ranks the sibling ran on.
	Ranks int
	// StepTime is the duration of one nest sub-step (including nested
	// descendants).
	StepTime float64
	// PhaseTime is Ratio * StepTime + coupling: the sibling's share of
	// one parent iteration.
	PhaseTime float64
	// Rect is the processor partition (concurrent strategy only).
	Rect alloc.Rect
}

// Result aggregates one run's virtual-time metrics, per parent
// iteration.
type Result struct {
	// IterTime is the integration time (no I/O).
	IterTime float64
	// IOTime is the amortized per-iteration I/O time.
	IOTime float64
	// WaitAvg and WaitMax are the mean and maximum accumulated per-rank
	// MPI_Wait times per iteration.
	WaitAvg, WaitMax float64
	// HopsAvg is the communication-weighted mean hop distance.
	HopsAvg float64
	// Siblings reports the first-level nests.
	Siblings []DomainMetrics
	// Rects are the first-level partitions (concurrent strategy only).
	Rects []alloc.Rect
}

// Total returns integration plus I/O time per iteration.
func (r Result) Total() float64 { return r.IterTime + r.IOTime }

// Errors returned by Run.
var (
	ErrBadRanks   = errors.New("driver: rank count must be positive")
	ErrNoSiblings = errors.New("driver: concurrent strategy needs at least one nest")
	ErrBadMachine = errors.New("driver: machine model incomplete")
	ErrBadOption  = errors.New("driver: option out of range")
)

// Validate reports whether the options can drive runs whose derived
// quantities stay finite: a positive rank count, a strategy, mapping,
// allocation policy and I/O mode each one of its named values, and a
// machine whose network parameters netsim accepts (positive latency
// and bandwidth, non-negative overhead, no NaN). Run and BuildPlan
// refuse such options too; layers that build arithmetic on top of run
// results — the campaign redistribution model divides by
// Bandwidth*Ranks, the ensemble engine aggregates thousands of members
// — call Validate up front so a bad rank count surfaces as a typed
// error as well.
func (o Options) Validate() error {
	if o.Ranks <= 0 {
		return ErrBadRanks
	}
	var bad fmt.Stringer
	switch {
	case o.Strategy < Sequential || o.Strategy > Concurrent:
		bad = o.Strategy
	case o.MapKind < MapSequential || o.MapKind > MapMultiLevel:
		bad = o.MapKind
	case o.Alloc < AllocPredicted || o.Alloc > AllocStripsPredicted:
		bad = o.Alloc
	case o.IOMode != iosim.Collective && o.IOMode != iosim.Split:
		bad = o.IOMode
	}
	if bad != nil {
		return fmt.Errorf("%w: %v", ErrBadOption, bad)
	}
	if err := o.Machine.Net.Validate(); err != nil {
		return fmt.Errorf("%w: %q: %w", ErrBadMachine, o.Machine.Name, err)
	}
	return nil
}

// TrainPredictor fits the interpolation model from the machine's cost
// model on the default basis, profiled on a fixed 64-rank grid — the
// counterpart of the paper's 13 profiling runs.
func TrainPredictor(m machine.Machine) (*predict.Model, error) {
	trainCount.Add(1)
	const profileRanks = 64
	mp, err := MappingFor(MapSequential, m, profileRanks, nil)
	if err != nil {
		return nil, err
	}
	samples := predict.Profile(predict.DefaultBasis(), func(nx, ny int) float64 {
		return model.SingleDomainStep(m, mp, nest.Root("probe", nx, ny)).Time()
	})
	return predict.Fit(samples)
}

// run tracks the state of one simulated iteration.
type run struct {
	opt    Options
	root   *nest.Domain
	pred   *predict.Model // resolved predictor, trained at most once per Run
	rootW  []float64      // the root's sibling weights, resolved at most once per Run
	g      vtopo.Grid
	tor    torus.Torus
	mp     *mapping.Mapping
	cells  []waitCell // disjoint rectangles tiling g, each with its ranks' accumulated wait
	hopNum float64    // hops weighted by communicating rank-steps
	hopDen float64
	rep    *reportBuilder        // nil unless a report or metrics were requested
	sp     *telemetry.ActiveSpan // the run span phase spans parent under; nil when untraced
}

// waitCell is a rectangle of ranks that share one accumulated MPI_Wait
// (avg under average-case communication, max under worst-case).
type waitCell struct {
	rect     alloc.Rect
	avg, max float64
}

// predictor returns the run's predictor — the only place a run gets
// its model — resolving the machine's shared CachedPredictor on first
// use (training it if this machine has never been seen).
func (r *run) predictor() (*predict.Model, error) {
	if r.pred == nil {
		p, err := CachedPredictor(r.opt.Machine)
		if err != nil {
			return nil, err
		}
		r.pred = p
	}
	return r.pred, nil
}

// siblingWeights returns the predicted weights that size d's children.
// Algorithm 1, the strips, Plan.Weights and the report's predicted
// shares all take their weights from here; the root's are resolved once
// per run (or preset by a steering round).
func (r *run) siblingWeights(d *nest.Domain) ([]float64, error) {
	if d == r.root && r.rootW != nil {
		return r.rootW, nil
	}
	p, err := r.predictor()
	if err != nil {
		return nil, err
	}
	w := p.Weights(d.Children)
	if d == r.root {
		r.rootW = w
	}
	return w, nil
}

// Run simulates one parent iteration of the domain tree cfg under the
// given options and returns its virtual-time metrics. When
// opt.Metrics is set, the run additionally records its breakdown into
// the registry.
func Run(cfg *nest.Domain, opt Options) (Result, error) {
	res, _, err := run0(cfg, opt, opt.Metrics != nil, nil)
	return res, err
}

// RunWithReport is Run plus the structured per-run Report: per-domain
// phase breakdowns, predicted-vs-realized sibling phase times,
// link-congestion summaries and I/O events.
func RunWithReport(cfg *nest.Domain, opt Options) (Result, *Report, error) {
	return run0(cfg, opt, true, nil)
}

// Comparison contrasts the default sequential strategy with the
// paper's concurrent strategy under identical options.
type Comparison struct {
	Default    Result
	Concurrent Result
	// ImprovementPct is the per-iteration integration-time gain.
	ImprovementPct float64
	// TotalImprovementPct includes I/O when enabled.
	TotalImprovementPct float64
	// WaitImprovementPct is the average MPI_Wait gain.
	WaitImprovementPct float64
}

// RunBoth executes cfg twice through run — as the stock WRF baseline
// (sequential strategy on the oblivious mapping), then under the
// concurrent strategy with opt's own mapping — and reports the
// improvements the paper's tables quote. Everything else in opt is
// honoured by both runs.
func RunBoth(cfg *nest.Domain, opt Options, run func(*nest.Domain, Options) (Result, error)) (Comparison, error) {
	seqOpt := opt
	seqOpt.Strategy = Sequential
	seqOpt.MapKind = MapSequential
	seq, err := run(cfg, seqOpt)
	if err != nil {
		return Comparison{}, err
	}
	conOpt := opt
	conOpt.Strategy = Concurrent
	con, err := run(cfg, conOpt)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		Default:             seq,
		Concurrent:          con,
		ImprovementPct:      stats.Improvement(seq.IterTime, con.IterTime),
		TotalImprovementPct: stats.Improvement(seq.Total(), con.Total()),
		WaitImprovementPct:  stats.Improvement(seq.WaitAvg, con.WaitAvg),
	}, nil
}

// Compare is RunBoth on the simulator itself.
func Compare(cfg *nest.Domain, opt Options) (Comparison, error) {
	return RunBoth(cfg, opt, Run)
}

// run0 is Run and RunWithReport; a steering round passes the root's
// corrected sibling weights as rootW, which stand in for the
// predictor's wherever siblingWeights is asked for the root.
func run0(cfg *nest.Domain, opt Options, observe bool, rootW []float64) (res Result, rep *Report, err error) {
	var r run
	if err := r.begin(cfg, opt, observe); err != nil {
		return Result{}, nil, err
	}
	r.rootW = rootW
	defer func() { r.end(res, err) }()

	// The first-level partitions are needed up front: the partition
	// mapping is defined by them.
	var rects []alloc.Rect
	if opt.Strategy == Concurrent {
		if len(cfg.Children) == 0 {
			return Result{}, nil, ErrNoSiblings
		}
		rects, err = r.allocate(cfg, r.g.Px, r.g.Py)
		if err != nil {
			return Result{}, nil, err
		}
	}
	r.mp, err = mappingFor(runKind(opt.MapKind, rects), r.g, r.tor, opt.Machine, rects)
	if err != nil {
		return Result{}, nil, err
	}
	return r.execute(cfg, rects)
}

// begin is the set-up Run and BuildPlan share: it validates the
// request, derives the virtual grid, the torus and the blank wait
// accounting, and opens the run span. After a nil return the caller owes
// r an end call, then picks the first-level partitions and the mapping
// and hands both to execute. (A method on the caller's value, not a
// constructor: the run stays on the caller's stack.)
func (r *run) begin(cfg *nest.Domain, opt Options, observe bool) error {
	if err := opt.Validate(); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	var err error
	if r.g, err = machine.GridFor(opt.Ranks); err != nil {
		return err
	}
	if r.tor, err = machine.TorusFor(opt.Ranks); err != nil {
		return err
	}
	r.opt = opt
	r.root = cfg
	if opt.Tracer.Recording() {
		r.sp = opt.Tracer.Start(opt.TraceParent, "driver.run", telemetry.LayerDriver)
		r.sp.Annotate("machine", opt.Machine.Name)
		r.sp.Annotate("strategy", opt.Strategy.String())
		r.sp.Annotate("alloc", opt.Alloc.String())
		r.sp.Annotate("mapping", opt.MapKind.String())
		r.sp.Annotate("ranks", strconv.Itoa(opt.Ranks))
	}
	// Capacity 8: no run of the paper's evaluation ends with more than 6 cells.
	r.cells = append(make([]waitCell, 0, 8), waitCell{rect: alloc.Rect{W: r.g.Px, H: r.g.Py}})
	if observe {
		r.rep = newReportBuilder()
	}
	return nil
}

// end closes the run span with the outcome. Safe on an untraced run.
func (r *run) end(res Result, err error) {
	if r.sp == nil {
		return
	}
	if err != nil {
		r.sp.Annotate("error", err.Error())
	} else {
		r.sp.Annotate("iter_seconds", strconv.FormatFloat(res.IterTime, 'g', -1, 64))
	}
	r.sp.End()
}

// runKind is the mapping kind a run executes on. The partition mapping
// is defined by the first-level partitions; a run without them (the
// sequential strategy) falls back to the oblivious mapping, which is
// what the unpartitioned default run uses anyway.
func runKind(kind MapKind, rects []alloc.Rect) MapKind {
	if kind == MapPartition && len(rects) == 0 {
		return MapSequential
	}
	return kind
}

// execute simulates one parent iteration on the state set-up built:
// rects are the first-level partitions (nil under the sequential
// strategy) and r.mp the mapping.
func (r *run) execute(cfg *nest.Domain, rects []alloc.Rect) (Result, *Report, error) {
	opt := r.opt
	full, err := vtopo.NewSubgrid(r.g, alloc.Rect{W: r.g.Px, H: r.g.Py})
	if err != nil {
		return Result{}, nil, err
	}

	res := Result{Rects: rects}
	iter, sibs, err := r.domainIter(cfg, full, rects, 1)
	if err != nil {
		return Result{}, nil, err
	}
	res.IterTime = iter
	res.Siblings = sibs

	res.WaitAvg, res.WaitMax = r.waits()
	if r.hopDen > 0 {
		res.HopsAvg = r.hopNum / r.hopDen
	}

	if opt.OutputEverySteps > 0 {
		res.IOTime = r.ioTime(cfg, rects) / float64(opt.OutputEverySteps)
	}
	if r.rep == nil {
		return res, nil, nil
	}
	rep, err := r.buildReport(cfg, res)
	if err != nil {
		return Result{}, nil, err
	}
	if opt.Metrics != nil {
		recordMetrics(opt.Metrics, rep)
	}
	return res, rep, nil
}

// allocate partitions a w x h processor rectangle among d's children.
func (r *run) allocate(d *nest.Domain, w, h int) ([]alloc.Rect, error) {
	switch r.opt.Alloc {
	case AllocEqual:
		return alloc.EqualSplit(len(d.Children), w, h)
	case AllocNaivePoints:
		weights := make([]float64, len(d.Children))
		for i, c := range d.Children {
			weights[i] = float64(c.Points())
		}
		return alloc.NaiveStrips(weights, w, h)
	}
	weights, err := r.siblingWeights(d)
	if err != nil {
		return nil, err
	}
	if r.opt.Alloc == AllocStripsPredicted {
		return alloc.NaiveStrips(weights, w, h)
	}
	return alloc.Partition(weights, w, h) // AllocPredicted
}

// MappingFor constructs the rank-to-torus mapping of the given kind
// for a machine size — the one place a MapKind becomes a mapping. It is
// strict: the partition mapping is defined by the first-level
// partitions and fails without them.
func MappingFor(kind MapKind, m machine.Machine, ranks int, rects []alloc.Rect) (*mapping.Mapping, error) {
	g, err := machine.GridFor(ranks)
	if err != nil {
		return nil, err
	}
	tor, err := machine.TorusFor(ranks)
	if err != nil {
		return nil, err
	}
	return mappingFor(kind, g, tor, m, rects)
}

// mappingFor is MappingFor on an already derived grid and torus.
func mappingFor(kind MapKind, g vtopo.Grid, tor torus.Torus, m machine.Machine, rects []alloc.Rect) (*mapping.Mapping, error) {
	switch kind {
	case MapTXYZ:
		return mapping.TXYZ(g, tor, m.CoresPerNode)
	case MapMultiLevel:
		return mapping.MultiLevel(g, tor)
	case MapPartition:
		return mapping.PartitionMapping(g, tor, rects)
	default:
		return mapping.Sequential(g, tor)
	}
}

// costs evaluates a phase under the run's contention setting. When a
// report is being built (and contention is on), the phase's link-
// congestion summary is captured alongside the costs.
func (r *run) costs(placements []model.Placement) []model.StepCost {
	var sp *telemetry.ActiveSpan
	if r.opt.Tracer.Recording() {
		// phaseName allocates, so it is only evaluated on the traced path.
		sp = r.opt.Tracer.Start(r.sp.ID(), phaseName(placements), telemetry.LayerPhase)
	}
	var cs []model.StepCost
	switch {
	case r.opt.NoContention:
		cs = model.PhaseCostsNoContention(r.opt.Machine, r.mp, placements)
	case r.rep != nil:
		var cong netsim.Congestion
		cs, cong = model.PhaseCostsCongestion(r.opt.Machine, r.mp, placements)
		r.rep.observeCongestion(phaseName(placements), cong)
	default:
		cs = model.PhaseCosts(r.opt.Machine, r.mp, placements)
	}
	if sp != nil {
		var longest float64
		for _, c := range cs {
			if t := c.Time(); t > longest {
				longest = t
			}
		}
		sp.Annotate("domains", strconv.Itoa(len(placements)))
		sp.Annotate("virtual_seconds", strconv.FormatFloat(longest, 'g', -1, 64))
		sp.End()
	}
	return cs
}

// domainIter returns the duration of one step of domain d on subgrid
// sg, including the nested phases of its children, and the per-sibling
// metrics for d's immediate children. rects, when non-nil, are the
// precomputed partitions for d's children (only used at the top level
// of the concurrent strategy; deeper levels allocate on the fly).
// mult is the number of times this step executes per parent iteration,
// used to accumulate per-rank wait times correctly across nesting
// levels.
func (r *run) domainIter(d *nest.Domain, sg vtopo.Subgrid, rects []alloc.Rect, mult float64) (float64, []DomainMetrics, error) {
	own := r.costs([]model.Placement{{D: d, SG: sg}})[0]
	r.account(d.Name, sg, mult, own)
	t := own.Time()
	if len(d.Children) == 0 {
		return t, nil, nil
	}

	var sibs []DomainMetrics
	switch r.opt.Strategy {
	case Sequential:
		for _, c := range d.Children {
			step, _, err := r.domainIter(c, sg, nil, mult*float64(c.Ratio))
			if err != nil {
				return 0, nil, err
			}
			// The sub-steps repeat Ratio times; coupling happens once per
			// parent step.
			couple := model.CouplingCost(r.opt.Machine, c, sg.Size())
			if r.rep != nil {
				r.rep.phase(c.Name, sg.Size()).CouplingSeconds += mult * couple
			}
			phase := float64(c.Ratio)*step + couple
			t += phase
			sibs = append(sibs, DomainMetrics{
				Name:      c.Name,
				Ranks:     sg.Size(),
				StepTime:  step,
				PhaseTime: phase,
				Rect:      sg.Rect,
			})
		}
	case Concurrent:
		var err error
		if rects == nil {
			rects, err = r.allocate(d, sg.Rect.W, sg.Rect.H)
			if err != nil {
				return 0, nil, err
			}
			// Deeper-level rects are relative to the subgrid.
			for i := range rects {
				rects[i].X += sg.Rect.X
				rects[i].Y += sg.Rect.Y
			}
		}
		placements := make([]model.Placement, len(d.Children))
		subgrids := make([]vtopo.Subgrid, len(d.Children))
		for i, c := range d.Children {
			csg, err := vtopo.NewSubgrid(sg.Parent, rects[i])
			if err != nil {
				return 0, nil, err
			}
			subgrids[i] = csg
			placements[i] = model.Placement{D: c, SG: csg}
		}
		costs := r.costs(placements)
		var longest float64
		for i, c := range d.Children {
			// One sub-step's communication occurs under full sibling
			// contention; nested descendants recurse on the partition.
			step := costs[i].Time()
			r.account(c.Name, subgrids[i], mult*float64(c.Ratio), costs[i])
			if len(c.Children) > 0 {
				inner, _, err := r.nestedExtra(c, subgrids[i], mult*float64(c.Ratio))
				if err != nil {
					return 0, nil, err
				}
				step += inner
			}
			couple := model.CouplingCost(r.opt.Machine, c, subgrids[i].Size())
			if r.rep != nil {
				r.rep.phase(c.Name, subgrids[i].Size()).CouplingSeconds += mult * couple
			}
			phase := float64(c.Ratio)*step + couple
			if phase > longest {
				longest = phase
			}
			sibs = append(sibs, DomainMetrics{
				Name:      c.Name,
				Ranks:     subgrids[i].Size(),
				StepTime:  step,
				PhaseTime: phase,
				Rect:      rects[i],
			})
		}
		// Siblings run simultaneously; the parent resumes when the slowest
		// finishes (the synchronization step of Section 3.2).
		t += longest
	}
	return t, sibs, nil
}

// nestedExtra returns the extra per-step time a domain spends driving
// its own children (used when the domain itself already has a phase
// cost computed as part of a sibling phase).
func (r *run) nestedExtra(d *nest.Domain, sg vtopo.Subgrid, mult float64) (float64, []DomainMetrics, error) {
	total, sibs, err := r.domainIter(d, sg, nil, mult)
	if err != nil {
		return 0, nil, err
	}
	// domainIter includes d's own step cost; subtract it since the
	// caller already accounted for it.
	own := r.costs([]model.Placement{{D: d, SG: sg}})[0]
	extra := total - own.Time()
	// Remove the double-counted own-step wait: accounting the same cost
	// for minus the steps undoes it exactly.
	r.account(d.Name, sg, -mult, own)
	if extra < 0 {
		extra = 0
	}
	return extra, sibs, nil
}

// account accrues wait times and hop statistics for the ranks of sg
// executing `steps` sub-steps of domain `name` with the given cost,
// and feeds the report's per-domain phase breakdown when one is being
// built.
func (r *run) account(name string, sg vtopo.Subgrid, steps float64, c model.StepCost) {
	r.addWait(sg.Rect, steps*c.CommAvg, steps*c.CommMax)
	w := steps * float64(c.Ranks)
	r.hopNum += c.HopsAvg * w
	r.hopDen += w
	if r.rep != nil {
		p := r.rep.phase(name, sg.Size())
		p.Steps += steps
		p.ComputeSeconds += steps * c.Compute
		p.TransferSeconds += steps * c.CommAvg
		p.WaitSeconds += steps * (c.CommMax - c.CommAvg)
	}
}

// addWait adds commAvg and commMax to the wait of every rank in s. A
// cell s covers in part is first split into the covered rectangle and up
// to four bands that keep its wait, so each rank sees the additions a
// per-rank array would, in the same order.
func (r *run) addWait(s alloc.Rect, commAvg, commMax float64) {
	for i, n := 0, len(r.cells); i < n; i++ {
		c, cr := r.cells[i], r.cells[i].rect
		x0, x1 := max(cr.X, s.X), min(cr.X+cr.W, s.X+s.W)
		y0, y1 := max(cr.Y, s.Y), min(cr.Y+cr.H, s.Y+s.H)
		if x0 >= x1 || y0 >= y1 {
			continue
		}
		for _, band := range [4]alloc.Rect{
			{X: cr.X, Y: cr.Y, W: cr.W, H: y0 - cr.Y},
			{X: cr.X, Y: y1, W: cr.W, H: cr.Y + cr.H - y1},
			{X: cr.X, Y: y0, W: x0 - cr.X, H: y1 - y0},
			{X: x1, Y: y0, W: cr.X + cr.W - x1, H: y1 - y0},
		} {
			if band.Area() > 0 {
				r.cells = append(r.cells, waitCell{band, c.avg, c.max})
			}
		}
		r.cells[i] = waitCell{alloc.Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}, c.avg + commAvg, c.max + commMax}
	}
}

// waits returns the mean average-case wait, summed in rank order (row
// by row, each row's cells in x order, a cell's wait once per rank), and
// the largest worst-case wait.
func (r *run) waits() (avg, worst float64) {
	slices.SortFunc(r.cells, func(a, b waitCell) int { return a.rect.X - b.rect.X })
	var sum float64
	for y := range r.g.Py {
		for _, c := range r.cells {
			if y >= c.rect.Y && y < c.rect.Y+c.rect.H {
				for range c.rect.W {
					sum += c.avg
				}
				if c.max > worst {
					worst = c.max
				}
			}
		}
	}
	return sum / float64(r.opt.Ranks), worst
}

// ioTime returns the cost of one output event: every domain writes a
// forecast file. In the sequential strategy all ranks write every file
// in turn; in the concurrent strategy each sibling's partition writes
// its file, and sibling files are written simultaneously.
func (r *run) ioTime(cfg *nest.Domain, rects []alloc.Rect) float64 {
	p := r.opt.Machine.IO
	mode := r.opt.IOMode
	// write models one domain's forecast file and records the event in
	// the report when one is being built.
	write := func(d *nest.Domain, writers int) float64 {
		bytes := float64(d.Points()) * iosim.OutputBytesPerPoint
		t := p.WriteTime(mode, writers, bytes)
		if r.rep != nil {
			r.rep.io = append(r.rep.io, WriteReport{
				Domain: d.Name, Writers: writers, Bytes: bytes, Seconds: t,
			})
		}
		return t
	}
	t := write(cfg, r.opt.Ranks)
	if r.opt.Strategy == Sequential || rects == nil {
		cfg.Walk(func(d *nest.Domain) {
			if d == cfg {
				return
			}
			t += write(d, r.opt.Ranks)
		})
		return t
	}
	// Concurrent: sibling subtrees write in parallel on their partitions.
	var slowest float64
	for i, c := range cfg.Children {
		writers := rects[i].Area()
		var sub float64
		c.Walk(func(d *nest.Domain) {
			sub += write(d, writers)
		})
		if sub > slowest {
			slowest = sub
		}
	}
	return t + slowest
}

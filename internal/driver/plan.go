package driver

import (
	"runtime"
	"sync"
	"sync/atomic"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/predict"
)

// MappingQuality summarizes the communication locality of one mapping
// kind: the average torus hop distance between neighbouring ranks, for
// the parent's full-grid decomposition, per sibling partition, and
// overall.
type MappingQuality struct {
	ParentAvgHops  float64
	SiblingAvgHops []float64
	OverallAvgHops float64
}

// Plan is the immutable outcome of the paper's planning pipeline for
// one configuration under one set of options: the predicted sibling
// weights, the processor partitions of Algorithm 1 under the requested
// allocation policy, the mapping quality of every feasible mapping
// kind, and the predicted cost of running the configuration with the
// requested strategy/mapping. A Plan is built once by BuildPlan and
// never mutated afterwards, so a single value can safely be shared
// across concurrent readers (the plan server hands cached Plans to
// many requests at once).
type Plan struct {
	// Ranks is the total processor count; the virtual grid is Px x Py.
	Ranks, Px, Py int
	// Strategy, Alloc and MapKind echo the options the plan was built
	// for.
	Strategy Strategy
	Alloc    AllocPolicy
	MapKind  MapKind
	// Weights are the predicted relative execution times of the
	// first-level siblings (summing to 1), from the interpolation model.
	Weights []float64
	// Rects are the processor partitions, one per first-level sibling,
	// sized by the requested allocation policy.
	Rects []alloc.Rect
	// Mapping reports hop quality per feasible mapping kind, keyed by
	// the kind's String (infeasible kinds, e.g. non-foldable shapes for
	// the multi-level mapping, are absent).
	Mapping map[string]MappingQuality
	// Cost is the predicted per-iteration cost of executing the
	// configuration under the plan's options on the virtual-time
	// simulator.
	Cost Result
}

// predEntry is one machine's singleflight training slot: the first
// caller trains inside the Once, and every concurrent first-touch
// caller waits on the same slot instead of training a redundant copy
// (Delaunay training is the most expensive step of a cold plan).
type predEntry struct {
	once sync.Once
	p    *predict.Model
	err  error
}

// Shared predictor cache. Predictors are deterministic functions of
// the machine's full identity (the paper's 13 profiling runs produce
// the same model every time), so one trained model is shared by every
// run, experiment and server request on the same machine. The key
// covers every field of the machine, not just its name: two machines
// that share a name but differ in any cost-model parameter must not
// share a predictor.
var (
	predMu    sync.Mutex
	predCache = map[string]*predEntry{}

	// trainCount tallies TrainPredictor invocations; the thundering-herd
	// regression test asserts N concurrent first-touch CachedPredictor
	// calls add exactly one.
	trainCount atomic.Int64
)

// TrainCalls reports how many times TrainPredictor has run in this
// process. Diagnostic: tests use the delta to prove the predictor
// singleflight holds under concurrency.
func TrainCalls() int64 { return trainCount.Load() }

// machineKeyBuf sizes the stack buffers machine keys are built in: a
// Blue Gene model's key is ≈ 215 bytes, so lookups do not allocate.
const machineKeyBuf = 256

// CachedPredictor returns the shared predictor for m, training it on
// first use. Training is deterministic, so the cached model is
// interchangeable with a freshly trained one; concurrent first-touch
// callers for the same machine share a single training pass.
func CachedPredictor(m machine.Machine) (*predict.Model, error) {
	var buf [machineKeyBuf]byte
	key := m.AppendKey(buf[:0])
	predMu.Lock()
	e, ok := predCache[string(key)]
	if !ok {
		e = &predEntry{}
		predCache[string(key)] = e
	}
	predMu.Unlock()
	e.once.Do(func() { e.p, e.err = TrainPredictor(m) })
	if e.err != nil {
		// Failed trainings are not cached: drop the entry (unless a
		// reset already replaced it) so the next caller retries.
		predMu.Lock()
		if predCache[string(key)] == e {
			delete(predCache, string(key))
		}
		predMu.Unlock()
		return nil, e.err
	}
	return e.p, nil
}

// ResetPredictorCache drops all cached predictors, forcing the next
// CachedPredictor call to retrain. Tests and the cold-cache benchmark
// workloads use this.
func ResetPredictorCache() {
	predMu.Lock()
	predCache = map[string]*predEntry{}
	predMu.Unlock()
}

// BuildPlan runs performance prediction, processor allocation, mapping
// analysis and cost prediction for cfg under the given options,
// returning the reusable Plan value. The cost is executed on the grid,
// partitions and mapping the plan itself was built from, and equals
// Run(cfg, opt). The caller's Options are never written to.
func BuildPlan(cfg *nest.Domain, opt Options) (plan *Plan, err error) {
	var r run
	if err := r.begin(cfg, opt, opt.Metrics != nil); err != nil {
		return nil, err
	}
	var cost Result
	defer func() { r.end(cost, err) }()

	if opt.Strategy == Concurrent && len(cfg.Children) == 0 {
		return nil, ErrNoSiblings
	}

	plan = &Plan{
		Ranks: opt.Ranks, Px: r.g.Px, Py: r.g.Py,
		Strategy: opt.Strategy, Alloc: opt.Alloc, MapKind: opt.MapKind,
		Mapping: map[string]MappingQuality{},
	}
	if len(cfg.Children) > 0 {
		if plan.Weights, err = r.siblingWeights(cfg); err != nil {
			return nil, err
		}
		plan.Rects, err = r.allocate(cfg, r.g.Px, r.g.Py)
		if err != nil {
			return nil, err
		}
	}

	// The run sees the partitions only under the concurrent strategy;
	// without them it executes a requested partition mapping as the
	// oblivious one (runKind), while the quality report still describes
	// the partition mapping proper.
	var runRects []alloc.Rect
	if opt.Strategy == Concurrent {
		runRects = plan.Rects
	}
	execKind := runKind(opt.MapKind, runRects)
	var mapErr error
	r.mp, mapErr = mappingFor(execKind, r.g, r.tor, opt.Machine, runRects)

	// Mapping quality for every kind that is feasible at this grid and
	// torus shape (e.g. the multi-level mapping needs foldable shapes;
	// infeasible kinds are simply absent from the report). The run's own
	// mapping is reported, not rebuilt.
	for _, kind := range []MapKind{MapSequential, MapTXYZ, MapPartition, MapMultiLevel} {
		mp, err := r.mp, mapErr
		if kind != execKind {
			mp, err = mappingFor(kind, r.g, r.tor, opt.Machine, plan.Rects)
		}
		if err != nil {
			continue
		}
		rep, err := mapping.Analyze(mp, plan.Rects)
		if err != nil {
			return nil, err
		}
		plan.Mapping[kind.String()] = MappingQuality{
			ParentAvgHops:  rep.ParentAvg,
			SiblingAvgHops: rep.SiblingAvg,
			OverallAvgHops: rep.OverallAvg,
		}
	}
	if mapErr != nil {
		return nil, mapErr
	}
	cost, _, err = r.execute(cfg, runRects)
	if err != nil {
		return nil, err
	}
	plan.Cost = cost
	return plan, nil
}

// PlanJob pairs one domain configuration with its planning options for
// BuildPlans.
type PlanJob struct {
	Config  *nest.Domain
	Options Options
}

// BuildPlans builds every job's plan in one batched pass: jobs fan out
// over at most `workers` goroutines (GOMAXPROCS when workers <= 0), and
// a cold batch still trains once per machine, inside CachedPredictor.
// Outputs keep input order: plans[i] and errs[i] belong to jobs[i], and
// each plan is byte-identical to what BuildPlan(jobs[i]...) returns on
// its own.
func BuildPlans(jobs []PlanJob, workers int) ([]*Plan, []error) {
	plans := make([]*Plan, len(jobs))
	errs := make([]error, len(jobs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				plans[i], errs[i] = BuildPlan(jobs[i].Config, jobs[i].Options)
			}
		}()
	}
	wg.Wait()
	return plans, errs
}

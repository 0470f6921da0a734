package planserve

import (
	"context"
	"sync/atomic"

	"nestwrf/internal/driver"
	"nestwrf/internal/metrics"
	"nestwrf/internal/nest"
	"nestwrf/internal/telemetry"
)

// PlanCache is the plan cache behind the HTTP server, exported for
// in-process embedding: engines that evaluate many scenarios — the
// ensemble campaign engine foremost — share one PlanCache so repeated
// geometries plan once, with singleflight deduplication when several
// workers ask for the same geometry concurrently.
//
// Entries are keyed by the same canonical name-free key the server
// uses (machine identity + options + domain geometry, sibling order
// preserved), so renamed but geometrically identical scenarios share
// one entry. Cached values are immutable by contract: callers must
// treat the slices inside a returned Result or Plan as read-only.
type PlanCache struct {
	c *cache
}

// NewPlanCache returns a cache bounded to maxEntries (min 1).
func NewPlanCache(maxEntries int) *PlanCache {
	return &PlanCache{c: newCache(maxEntries)}
}

// Instrument mirrors the cache's hit/miss/eviction/join counters into
// reg as plancache_{hits,misses,evictions,joins}_total, so embedders
// (cmd/ensemble -metrics, the plan server) report cache effectiveness
// alongside their other instruments. A nil registry is a no-op.
func (p *PlanCache) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	p.c.instrument(reg, "plancache", labels...)
}

// startLookupSpan opens a cache-layer span for one lookup when the
// options carry a recording tracer; the caller ends it via
// endLookupSpan once the outcome is known. The driver span of a
// cache-miss computation parents under this span, so a trace shows
// hit lookups as leaf spans and misses with a driver subtree.
func startLookupSpan(opt driver.Options, name string) *telemetry.ActiveSpan {
	if !opt.Tracer.Recording() {
		return nil
	}
	return opt.Tracer.Start(opt.TraceParent, name, telemetry.LayerCache)
}

// endLookupSpan annotates the lookup span with its outcome and closes
// it. Safe on a nil span.
func endLookupSpan(sp *telemetry.ActiveSpan, out cacheOutcome, err error) {
	if sp == nil {
		return
	}
	sp.Annotate("outcome", out.String())
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	sp.End()
}

// query names one kind of cached value: its metric label, lookup span
// and key prefix, spelled out so a lookup builds no strings.
type query struct{ name, span, prefix string }

var (
	queryRun     = query{"run", "plancache.run", "run|"}
	queryPlan    = query{"plan", "plancache.plan", "plan|"}
	queryCompare = query{"compare", "plancache.compare", "compare|"}
)

// lookup is the one cache path every query takes: lookup span,
// canonical key, singleflight do, outcome annotation. On a miss, miss
// computes the value under options whose TraceParent is the lookup
// span, so the computation's driver span nests under it. A hit also
// returns the entry's stored-body slot, which only the server uses.
func (p *PlanCache) lookup(ctx context.Context, q query, cfg *nest.Domain, opt driver.Options, miss func(driver.Options) (any, error)) (any, *atomic.Pointer[storedBody], cacheOutcome, error) {
	sp := startLookupSpan(opt, q.span)
	var buf [keyBuf]byte
	return p.do(ctx, sp, appendKey(buf[:0], q.prefix, opt, cfg), opt, miss)
}

// do is a lookup's singleflight step under its open lookup span sp,
// which it ends with the outcome.
func (p *PlanCache) do(ctx context.Context, sp *telemetry.ActiveSpan, key []byte, opt driver.Options, miss func(driver.Options) (any, error)) (any, *atomic.Pointer[storedBody], cacheOutcome, error) {
	opt.TraceParent = sp.ID()
	v, body, out, err := p.c.do(ctx, key, func() (any, error) { return miss(opt) })
	endLookupSpan(sp, out, err)
	return v, body, out, err
}

// Run returns driver.Run's result for cfg under opt, computing it at
// most once per canonical key. hit reports whether the result came
// from the cache without waiting on any computation. The options'
// Metrics, Tracer and TraceParent fields are not part of the key:
// observability does not change results. The predictor is not an
// option at all: the run resolves the machine's cached one, and the
// machine is keyed.
func (p *PlanCache) Run(ctx context.Context, cfg *nest.Domain, opt driver.Options) (driver.Result, bool, error) {
	v, _, out, err := p.lookup(ctx, queryRun, cfg, opt, func(opt driver.Options) (any, error) {
		res, err := driver.Run(cfg, opt)
		if err != nil {
			return nil, err
		}
		return &res, nil
	})
	if err != nil {
		return driver.Result{}, out == outcomeHit, err
	}
	return withNames(*(v.(*driver.Result)), func(i int) string { return cfg.Children[i].Name }), out == outcomeHit, nil
}

// withNames returns r with its per-sibling metrics under the caller's
// first-level names, name(i) for the i-th. Keys are name-free, so a
// cached result carries the names of whichever request computed it;
// the caller's names go on a copy of the Siblings slice — only when one
// differs — and the cached value is never written. The key pins the
// geometry, so r has one sibling per first-level nest of the caller.
func withNames(r driver.Result, name func(i int) string) driver.Result {
	for i := range r.Siblings {
		if r.Siblings[i].Name == name(i) {
			continue
		}
		sibs := make([]driver.DomainMetrics, len(r.Siblings))
		for j, s := range r.Siblings {
			s.Name = name(j)
			sibs[j] = s
		}
		r.Siblings = sibs
		break
	}
	return r
}

// Plan returns driver.BuildPlan's output for cfg under opt, computing
// it at most once per canonical key. The plan is the shared cached
// value, so its Cost.Siblings carry the names of the request that
// computed it: a caller that reports them re-attaches its own, as the
// server's planResponse does.
func (p *PlanCache) Plan(ctx context.Context, cfg *nest.Domain, opt driver.Options) (*driver.Plan, bool, error) {
	v, _, out, err := p.lookup(ctx, queryPlan, cfg, opt, func(opt driver.Options) (any, error) {
		return driver.BuildPlan(cfg, opt)
	})
	if err != nil {
		return nil, out == outcomeHit, err
	}
	return v.(*driver.Plan), out == outcomeHit, nil
}

// Len returns the number of resident entries.
func (p *PlanCache) Len() int { return p.c.Len() }

// Stats returns cumulative hit/miss/eviction counts. Misses count
// distinct computed keys (joiners of an in-flight computation count
// as neither), so on an eviction-free run Misses equals the number of
// distinct geometries planned.
func (p *PlanCache) Stats() (hits, misses, evictions uint64) { return p.c.Stats() }

// Joins returns how many lookups waited on another caller's in-flight
// computation instead of recomputing (singleflight deduplication).
func (p *PlanCache) Joins() uint64 { return p.c.Joins() }

// Close empties the cache; further calls fail with ErrCacheClosed.
func (p *PlanCache) Close() { p.c.Close() }

package planserve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"nestwrf/internal/driver"
	"nestwrf/internal/metrics"
	"nestwrf/internal/nest"
	"nestwrf/internal/telemetry"
)

// ErrCacheClosed is returned by lookups after Close.
var ErrCacheClosed = errors.New("planserve: cache closed")

// cacheOutcome classifies how a lookup was satisfied.
type cacheOutcome int

const (
	// outcomeMiss: this caller led the computation.
	outcomeMiss cacheOutcome = iota
	// outcomeHit: served from the resident cache, no waiting.
	outcomeHit
	// outcomeJoin: waited on another caller's in-flight computation
	// (singleflight dedup).
	outcomeJoin
	// outcomeNone: the request was invalid and never reached the
	// cache; nothing is counted.
	outcomeNone
)

// String returns the annotation/label form of the outcome.
func (o cacheOutcome) String() string {
	switch o {
	case outcomeHit:
		return "hit"
	case outcomeJoin:
		return "join"
	case outcomeNone:
		return "none"
	}
	return "miss"
}

// flight is one in-progress computation that concurrent identical
// queries join instead of recomputing (singleflight dedup). done is
// closed exactly once, after val/err are set.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// PlanCache is the plan cache behind the HTTP server, exported for
// in-process embedding: engines that evaluate many scenarios — the
// ensemble campaign engine foremost — share one PlanCache so repeated
// geometries plan once, with singleflight deduplication when several
// workers ask for the same geometry concurrently.
//
// It is a bounded LRU keyed by the same canonical name-free key the
// server uses (machine identity + options + domain geometry, sibling
// order preserved), so renamed but geometrically identical scenarios
// share one entry. Cached values are immutable by contract: a hit hands
// the same pointer to every caller, which must treat the slices inside
// a returned Result or Plan as read-only.
type PlanCache struct {
	mu       sync.Mutex
	max      int        // maximum resident entries (> 0)
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight
	closed   bool

	hits, misses, evictions, joins uint64

	// Warm-load accounting: snapshot keys planned and inserted at load
	// time (loaded), keys refused there (rejected — not a request the
	// server would plan, planning failed, already resident, over
	// capacity), and warm entries later pushed out by LRU churn
	// (evicted).
	warmLoaded, warmRejected, warmEvicted uint64

	// Optional registry counters, mirroring the internal counts; nil
	// (the default) is a no-op thanks to the metrics nil contract.
	mHits, mMisses, mEvictions, mJoins       *metrics.Counter
	mWarmLoaded, mWarmRejected, mWarmEvicted *metrics.Counter
}

// lruEntry is the list payload. warm marks entries planned by a
// snapshot load rather than by a lookup. body is the response
// the server encoded from val on the entry's first hit; an entry's val
// never changes (insert over a resident key replaces the entry), so a
// stored body always belongs to the val beside it.
type lruEntry struct {
	key  string
	val  any
	warm bool
	body atomic.Pointer[storedBody]
}

// NewPlanCache returns a cache bounded to maxEntries (min 1).
func NewPlanCache(maxEntries int) *PlanCache {
	return &PlanCache{
		max:      max(maxEntries, 1),
		ll:       list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]*flight{},
	}
}

// Instrument mirrors the cache's counters into reg as
// plancache_{hits,misses,evictions,joins}_total and
// planserve_cache_warm_{loaded,rejected,evicted}_total, so embedders
// (cmd/ensemble -metrics, the plan server) report cache effectiveness
// alongside their other instruments. A nil registry is a no-op; counts
// recorded before instrumentation are not backfilled.
func (p *PlanCache) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mHits = reg.Counter("plancache_hits_total")
	p.mMisses = reg.Counter("plancache_misses_total")
	p.mEvictions = reg.Counter("plancache_evictions_total")
	p.mJoins = reg.Counter("plancache_joins_total")
	p.mWarmLoaded = reg.Counter("planserve_cache_warm_loaded_total")
	p.mWarmRejected = reg.Counter("planserve_cache_warm_rejected_total")
	p.mWarmEvicted = reg.Counter("planserve_cache_warm_evicted_total")
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

// compute is one miss of kind q: the driver call whose value a q entry
// holds, a *driver.Plan, *driver.Comparison or *driver.Result.
func (q query) compute(cfg *nest.Domain, opt driver.Options) (any, error) {
	switch q {
	case queryPlan:
		return driver.BuildPlan(cfg, opt)
	case queryCompare:
		c, err := driver.Compare(cfg, opt)
		if err != nil {
			return nil, err
		}
		return &c, nil
	}
	r, err := driver.Run(cfg, opt)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// lookup is the one way into the cache: it returns the value for key,
// or computes it via miss. At most one miss runs per key at a time:
// concurrent callers with the same key wait for the leader's result (or
// their own context, in which case the computation keeps running and
// lands in the cache for later queries). Errors are not cached; the
// next query retries. The outcome reports a hit, a miss (this caller
// led the computation) or a join (it waited on another caller's
// flight). miss runs under options whose TraceParent is the open lookup
// span sp, so its driver span nests under it; lookup ends sp with the
// outcome. key is only read during the call: a hit or join never copies
// it, a miss makes the one string the flight and the resident entry
// share.
func (p *PlanCache) lookup(ctx context.Context, sp *telemetry.ActiveSpan, key []byte, opt driver.Options, miss func(driver.Options) (any, error)) (val any, out cacheOutcome, err error) {
	defer func() { endLookupSpan(sp, out, err) }()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, outcomeMiss, ErrCacheClosed
	}
	if e := p.hitLocked(key); e != nil {
		p.mu.Unlock()
		return e.val, outcomeHit, nil
	}
	if f, ok := p.inflight[string(key)]; ok {
		p.joins++
		p.mJoins.Inc()
		p.mu.Unlock()
		select {
		case <-f.done:
			return f.val, outcomeJoin, f.err
		case <-ctx.Done():
			return nil, outcomeJoin, ctx.Err()
		}
	}
	k := string(key)
	f := &flight{done: make(chan struct{})}
	p.inflight[k] = f
	p.misses++
	p.mMisses.Inc()
	p.mu.Unlock()

	opt.TraceParent = sp.ID()
	f.val, f.err = miss(opt)

	p.mu.Lock()
	delete(p.inflight, k)
	if f.err == nil && !p.closed {
		p.insert(k, f.val)
	}
	p.mu.Unlock()
	close(f.done)
	return f.val, outcomeMiss, f.err
}

// resident is lookup's hit without the rest of lookup: key's resident
// entry, counted as a hit, or nil with nothing counted when key is not
// resident or the cache is closed. It is the only way to an entry's
// stored-body slot.
func (p *PlanCache) resident(key []byte) *lruEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	return p.hitLocked(key)
}

// hitLocked returns key's resident entry, moved to the front and
// counted as a hit, or nil (callers hold p.mu).
func (p *PlanCache) hitLocked(key []byte) *lruEntry {
	el, ok := p.entries[string(key)]
	if !ok {
		return nil
	}
	p.ll.MoveToFront(el)
	p.hits++
	p.mHits.Inc()
	return el.Value.(*lruEntry)
}

// insert adds key -> val and evicts the least recently used entry when
// over capacity (callers hold p.mu). A resident key gets a fresh entry,
// dropping the body stored from the old value.
func (p *PlanCache) insert(key string, val any) {
	if el, ok := p.entries[key]; ok {
		el.Value = &lruEntry{key: key, val: val, warm: el.Value.(*lruEntry).warm}
		p.ll.MoveToFront(el)
		return
	}
	p.entries[key] = p.ll.PushFront(&lruEntry{key: key, val: val})
	for p.ll.Len() > p.max {
		oldest := p.ll.Back()
		p.ll.Remove(oldest)
		e := oldest.Value.(*lruEntry)
		delete(p.entries, e.key)
		p.evictions++
		p.mEvictions.Inc()
		if e.warm {
			p.warmEvicted++
			p.mWarmEvicted.Inc()
		}
	}
}

// Run returns driver.Run's result for cfg under opt, computing it at
// most once per canonical key. hit reports whether the result came
// from the cache without waiting on any computation. The options'
// Metrics, Tracer and TraceParent fields are not part of the key:
// observability does not change results. The predictor is not an
// option at all: the run resolves the machine's cached one, and the
// machine is keyed.
func (p *PlanCache) Run(ctx context.Context, cfg *nest.Domain, opt driver.Options) (driver.Result, bool, error) {
	var buf [keyBuf]byte
	v, out, err := p.lookup(ctx, startLookupSpan(opt, queryRun.span), appendKey(buf[:0], queryRun.prefix, opt, cfg), opt, func(opt driver.Options) (any, error) {
		return queryRun.compute(cfg, opt)
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
	var buf [keyBuf]byte
	v, out, err := p.lookup(ctx, startLookupSpan(opt, queryPlan.span), appendKey(buf[:0], queryPlan.prefix, opt, cfg), opt, func(opt driver.Options) (any, error) {
		return queryPlan.compute(cfg, opt)
	})
	if err != nil {
		return nil, out == outcomeHit, err
	}
	return v.(*driver.Plan), out == outcomeHit, nil
}

// Stats returns cumulative hit/miss/eviction counts. Misses count
// distinct computed keys (joiners of an in-flight computation count
// as neither), so on an eviction-free run Misses equals the number of
// distinct geometries planned.
func (p *PlanCache) Stats() (hits, misses, evictions uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.evictions
}

// Joins returns how many lookups waited on another caller's in-flight
// computation instead of recomputing (singleflight deduplication).
func (p *PlanCache) Joins() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.joins
}

// WarmStats reports the warm-load counters: snapshot entries loaded,
// entries rejected at load time, and warm entries later evicted by LRU
// churn.
func (p *PlanCache) WarmStats() (loaded, rejected, evicted uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.warmLoaded, p.warmRejected, p.warmEvicted
}

// Close empties the cache; further lookups fail with ErrCacheClosed.
// In-flight computations complete but their results are dropped.
func (p *PlanCache) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.ll.Init()
	p.entries = map[string]*list.Element{}
}

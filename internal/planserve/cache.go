package planserve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"nestwrf/internal/metrics"
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

// cache is a bounded, shared LRU keyed by canonical query strings,
// with singleflight deduplication of concurrent misses. It stores
// immutable plan values: a hit hands the same pointer to every caller,
// which is safe because plans are never mutated after construction.
type cache struct {
	mu       sync.Mutex
	max      int        // maximum resident entries (> 0)
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight
	closed   bool

	hits, misses, evictions, joins uint64

	// Warm-load accounting: entries restored from a persisted snapshot
	// (loaded), snapshot entries refused at load time (rejected —
	// machine mismatch, decode failure, over capacity), and warm
	// entries later pushed out by LRU churn (evicted).
	warmLoaded, warmRejected, warmEvicted uint64

	// Optional registry counters, mirroring the internal counts; nil
	// (the default) is a no-op thanks to the metrics nil contract.
	mHits, mMisses, mEvictions, mJoins       *metrics.Counter
	mWarmLoaded, mWarmRejected, mWarmEvicted *metrics.Counter
}

// lruEntry is the list payload. warm marks entries restored from a
// snapshot rather than computed in this process. body is the response
// the server encoded from val on the entry's first hit; an entry's val
// never changes (insert over a resident key replaces the entry), so a
// stored body always belongs to the val beside it.
type lruEntry struct {
	key  string
	val  any
	warm bool
	body atomic.Pointer[storedBody]
}

// newCache returns an LRU cache bounded to max entries (min 1).
func newCache(max int) *cache {
	if max < 1 {
		max = 1
	}
	return &cache{
		max:      max,
		ll:       list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]*flight{},
	}
}

// do returns the cached value for key, or computes it via compute. At
// most one compute runs per key at a time: concurrent callers with the
// same key wait for the leader's result (or their own context, in
// which case the computation keeps running and lands in the cache for
// later queries). Errors are not cached; the next query retries. The
// outcome reports a hit, a miss (this caller led the computation) or a
// join (it waited on another caller's flight). key is only read during
// the call: a hit or join never copies it, a miss makes the one string
// the flight and the resident entry share. A hit also returns the
// entry's stored-body slot (nil otherwise).
func (c *cache) do(ctx context.Context, key []byte, compute func() (any, error)) (val any, body *atomic.Pointer[storedBody], out cacheOutcome, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, outcomeMiss, ErrCacheClosed
	}
	if e := c.hitLocked(key); e != nil {
		c.mu.Unlock()
		return e.val, &e.body, outcomeHit, nil
	}
	if f, ok := c.inflight[string(key)]; ok {
		c.joins++
		c.mJoins.Inc()
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, nil, outcomeJoin, f.err
		case <-ctx.Done():
			return nil, nil, outcomeJoin, ctx.Err()
		}
	}
	k := string(key)
	f := &flight{done: make(chan struct{})}
	c.inflight[k] = f
	c.misses++
	c.mMisses.Inc()
	c.mu.Unlock()

	f.val, f.err = compute()

	c.mu.Lock()
	delete(c.inflight, k)
	if f.err == nil && !c.closed {
		c.insert(k, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, nil, outcomeMiss, f.err
}

// resident is do's hit without the rest of do: key's resident entry,
// counted as a hit, or nil with nothing counted when key is not
// resident or the cache is closed.
func (c *cache) resident(key []byte) *lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	return c.hitLocked(key)
}

// hitLocked returns key's resident entry, moved to the front and
// counted as a hit, or nil (callers hold c.mu).
func (c *cache) hitLocked(key []byte) *lruEntry {
	el, ok := c.entries[string(key)]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits++
	c.mHits.Inc()
	return el.Value.(*lruEntry)
}

// insert adds key -> val and evicts the least recently used entry when
// over capacity (callers hold c.mu). A resident key gets a fresh entry,
// dropping the body stored from the old value.
func (c *cache) insert(key string, val any) {
	if el, ok := c.entries[key]; ok {
		el.Value = &lruEntry{key: key, val: val, warm: el.Value.(*lruEntry).warm}
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*lruEntry)
		delete(c.entries, e.key)
		c.evictions++
		c.mEvictions.Inc()
		if e.warm {
			c.warmEvicted++
			c.mWarmEvicted.Inc()
		}
	}
}

// dumpEntry is one resident entry in dump order.
type dumpEntry struct {
	key string
	val any
}

// dump returns the resident entries, most recently used first.
func (c *cache) dump() []dumpEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]dumpEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		out = append(out, dumpEntry{key: e.key, val: e.val})
	}
	return out
}

// loadWarm inserts one snapshot entry without touching the hit/miss
// counters. Entries must arrive most-recently-used first: each lands
// behind the previously loaded ones, reconstructing the dump's LRU
// order exactly. Returns false — the caller counts a rejection — when
// the cache is closed, already holds the key, or is at capacity.
func (c *cache) loadWarm(key string, val any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.ll.Len() >= c.max {
		return false
	}
	if _, ok := c.entries[key]; ok {
		return false
	}
	c.entries[key] = c.ll.PushBack(&lruEntry{key: key, val: val, warm: true})
	c.warmLoaded++
	c.mWarmLoaded.Inc()
	return true
}

// noteWarmRejected records n snapshot entries refused at load time.
func (c *cache) noteWarmRejected(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.warmRejected += uint64(n)
	c.mWarmRejected.Add(float64(n))
}

// WarmStats returns the snapshot warm-load counters.
func (c *cache) WarmStats() (loaded, rejected, evicted uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.warmLoaded, c.warmRejected, c.warmEvicted
}

// Len returns the number of resident entries.
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *cache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Joins returns the cumulative count of lookups that waited on another
// caller's in-flight computation (singleflight dedup).
func (c *cache) Joins() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joins
}

// instrument mirrors the cache's counters into reg under the given
// metric name prefix (e.g. "plancache" yields plancache_hits_total and
// friends). A nil registry leaves the cache uninstrumented; counts
// recorded before instrumentation are not backfilled.
func (c *cache) instrument(reg *metrics.Registry, prefix string, labels ...metrics.Label) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mHits = reg.Counter(prefix+"_hits_total", labels...)
	c.mMisses = reg.Counter(prefix+"_misses_total", labels...)
	c.mEvictions = reg.Counter(prefix+"_evictions_total", labels...)
	c.mJoins = reg.Counter(prefix+"_joins_total", labels...)
	c.mWarmLoaded = reg.Counter("planserve_cache_warm_loaded_total", labels...)
	c.mWarmRejected = reg.Counter("planserve_cache_warm_rejected_total", labels...)
	c.mWarmEvicted = reg.Counter("planserve_cache_warm_evicted_total", labels...)
}

// Close empties the cache and makes further lookups fail fast.
// In-flight computations complete but their results are dropped.
func (c *cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.ll.Init()
	c.entries = map[string]*list.Element{}
}

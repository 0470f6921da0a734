package planserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nestwrf/internal/driver"
)

func TestCacheHitAndMiss(t *testing.T) {
	c := NewPlanCache(4)
	ctx := context.Background()
	calls := 0
	compute := func() (any, error) { calls++; return "v", nil }

	v, hit, err := doHit(ctx, c, "k", compute)
	if err != nil || hit || v != "v" {
		t.Fatalf("first Do = (%v, %v, %v), want (v, miss, nil)", v, hit, err)
	}
	v, hit, err = doHit(ctx, c, "k", compute)
	if err != nil || !hit || v != "v" {
		t.Fatalf("second Do = (%v, %v, %v), want (v, hit, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestCacheBoundedEviction(t *testing.T) {
	c := NewPlanCache(3)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := doHit(ctx, c, key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.ll.Len(); n != 3 {
		t.Fatalf("cache holds %d entries after 5 inserts with max 3", n)
	}
	_, _, evictions := c.Stats()
	if evictions != 2 {
		t.Errorf("evictions = %d, want 2", evictions)
	}
	// k0 and k1 were evicted (LRU); k4 must still be resident.
	if _, hit, _ := doHit(ctx, c, "k4", func() (any, error) { return -1, nil }); !hit {
		t.Error("most recent entry was evicted")
	}
	if _, hit, _ := doHit(ctx, c, "k0", func() (any, error) { return -1, nil }); hit {
		t.Error("least recent entry survived eviction")
	}
}

func TestCacheLRUOrderUpdatedOnHit(t *testing.T) {
	c := NewPlanCache(2)
	ctx := context.Background()
	put := func(k string) {
		if _, _, err := doHit(ctx, c, k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	put("a") // touch a: b becomes LRU
	put("c") // evicts b, not a
	if _, hit, _ := doHit(ctx, c, "a", func() (any, error) { return "", nil }); !hit {
		t.Error("recently touched entry was evicted")
	}
	if _, hit, _ := doHit(ctx, c, "b", func() (any, error) { return "", nil }); hit {
		t.Error("least recently used entry survived")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewPlanCache(4)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	_, _, err := doHit(ctx, c, "k", func() (any, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := doHit(ctx, c, "k", func() (any, error) { calls++; return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry after error = (%v, %v, %v), want fresh compute", v, hit, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (error not cached)", calls)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewPlanCache(4)
	ctx := context.Background()
	const joiners = 16
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := doHit(ctx, c, "k", func() (any, error) {
				computes.Add(1)
				<-gate // hold the flight open until all joiners queue
				return "shared", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the leader is in flight, then release it. Stragglers
	// that arrive after completion hit the cache; either way compute
	// must run exactly once.
	for computes.Load() == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times for concurrent identical queries, want 1", n)
	}
	for i, v := range results {
		if v != "shared" {
			t.Errorf("joiner %d got %v, want shared", i, v)
		}
	}
}

func TestCacheJoinerContextCancel(t *testing.T) {
	c := NewPlanCache(4)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = doHit(context.Background(), c, "k", func() (any, error) {
			<-gate
			return "late", nil
		})
	}()
	// Wait for the leader's flight to register.
	for {
		c.mu.Lock()
		n := len(c.inflight)
		c.mu.Unlock()
		if n > 0 {
			break
		}
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := doHit(ctx, c, "k", func() (any, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner got %v, want context.Canceled", err)
	}
	close(gate)
	<-leaderDone
	// The leader's result still landed in the cache for later queries.
	v, hit, err := doHit(context.Background(), c, "k", func() (any, error) { return nil, nil })
	if err != nil || !hit || v != "late" {
		t.Fatalf("post-cancel Do = (%v, %v, %v), want cached leader result", v, hit, err)
	}
}

func TestCacheClose(t *testing.T) {
	c := NewPlanCache(4)
	ctx := context.Background()
	if _, _, err := doHit(ctx, c, "k", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, _, err := doHit(ctx, c, "k", func() (any, error) { return 2, nil }); !errors.Is(err, ErrCacheClosed) {
		t.Fatalf("Do after Close = %v, want ErrCacheClosed", err)
	}
	if c.ll.Len() != 0 {
		t.Error("Close did not empty the cache")
	}
}

// doHit is lookup, untraced, with the outcome reduced to the hit flag
// these tests assert on.
func doHit(ctx context.Context, c *PlanCache, key string, compute func() (any, error)) (any, bool, error) {
	val, out, err := c.lookup(ctx, nil, []byte(key), driver.Options{}, func(driver.Options) (any, error) { return compute() })
	return val, out == outcomeHit, err
}

package planserve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
)

func cacheCfg() *nest.Domain {
	cfg := nest.Root("p", 286, 307)
	cfg.AddChild("a", 394, 418, 3, 5, 5)
	cfg.AddChild("b", 232, 202, 3, 150, 10)
	return cfg
}

func cacheOpt() driver.Options {
	return driver.Options{
		Machine:  machine.BGL(),
		Ranks:    256,
		Strategy: driver.Concurrent,
		Alloc:    driver.AllocPredicted,
		MapKind:  driver.MapSequential,
	}
}

func TestPlanCacheRunHitsAndIdentity(t *testing.T) {
	pc := NewPlanCache(16)
	ctx := context.Background()
	cold, hit, err := pc.Run(ctx, cacheCfg(), cacheOpt())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first query reported a hit")
	}
	if direct, err := driver.Run(cacheCfg(), cacheOpt()); err != nil || !reflect.DeepEqual(cold, direct) {
		t.Errorf("cached result differs from driver.Run (err=%v)", err)
	}
	warm, hit, err := pc.Run(ctx, cacheCfg(), cacheOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second query missed")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("cached result differs:\ncold %+v\nwarm %+v", cold, warm)
	}
	// Renaming domains must not change the key, and the hit carries the
	// caller's names without writing them into the cached value.
	renamed := cacheCfg()
	renamed.Children[0].Name = "typhoon-renamed"
	got, hit, err := pc.Run(ctx, renamed, cacheOpt())
	if err != nil || !hit {
		t.Errorf("renamed geometry should hit: hit=%v err=%v", hit, err)
	}
	if direct, err := driver.Run(renamed, cacheOpt()); err != nil || !reflect.DeepEqual(got, direct) {
		t.Errorf("renamed hit differs from driver.Run on the renamed config (err=%v):\nhit    %+v\ndirect %+v", err, got.Siblings, direct.Siblings)
	}
	if cold.Siblings[0].Name != "a" {
		t.Errorf("renaming wrote into the cached result: %q", cold.Siblings[0].Name)
	}
	// A different strategy is a different plan.
	seq := cacheOpt()
	seq.Strategy = driver.Sequential
	if _, hit, err = pc.Run(ctx, cacheCfg(), seq); err != nil || hit {
		t.Errorf("different strategy should miss: hit=%v err=%v", hit, err)
	}
	hits, misses, _ := pc.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestPlanCachePlanEndpointAndClose(t *testing.T) {
	pc := NewPlanCache(16)
	ctx := context.Background()
	p1, hit, err := pc.Plan(ctx, cacheCfg(), cacheOpt())
	if err != nil || hit {
		t.Fatalf("cold plan: hit=%v err=%v", hit, err)
	}
	p2, hit, err := pc.Plan(ctx, cacheCfg(), cacheOpt())
	if err != nil || !hit {
		t.Fatalf("warm plan: hit=%v err=%v", hit, err)
	}
	if p1 != p2 {
		t.Error("warm plan is not the shared cached pointer")
	}
	pc.Close()
	if _, _, err := pc.Plan(ctx, cacheCfg(), cacheOpt()); !errors.Is(err, ErrCacheClosed) {
		t.Errorf("closed cache: %v", err)
	}
}

// Concurrent identical queries must resolve to one computation and
// identical results (singleflight through the exported wrapper).
func TestPlanCacheConcurrentRun(t *testing.T) {
	pc := NewPlanCache(16)
	ctx := context.Background()
	const n = 16
	results := make([]driver.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = pc.Run(ctx, cacheCfg(), cacheOpt())
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("query %d diverged", i)
		}
	}
	_, misses, _ := pc.Stats()
	if misses != 1 {
		t.Errorf("%d misses for one distinct key", misses)
	}
}

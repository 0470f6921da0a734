package driver

import (
	"reflect"
	"sync"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/model"
	"nestwrf/internal/nest"
)

// TestConcurrentRunWithToggles is the concurrent-server guard for the
// remaining package-level toggle on the planning path: many goroutines
// Run simultaneously while another flips model.SetMemoize. Before the
// toggle became atomic this was a data race (a server could observe a
// torn read mid-request); now every Run must complete race-free and —
// because the memoized and unmemoized evaluations are
// equivalence-guarded — produce the identical Result regardless of the
// toggle state it observed. Run under -race in CI.
func TestConcurrentRunWithToggles(t *testing.T) {
	defer func() {
		model.SetMemoize(true)
		model.ResetCache()
	}()

	cfg := nest.Root("race", 286, 307)
	cfg.AddChild("s1", 394, 418, 3, 5, 5)
	cfg.AddChild("s2", 313, 337, 3, 140, 150)
	opt := Options{
		Machine:  machine.BGL(),
		Ranks:    64,
		Strategy: Concurrent,
		MapKind:  MapMultiLevel,
	}
	want, err := Run(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 8, 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // toggler: flip the switch while runs are in flight
		defer wg.Done()
		on := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			on = !on
			model.SetMemoize(on)
		}
	}()
	errs := make(chan error, workers*iters)
	results := make(chan Result, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := Run(cfg, opt)
				if err != nil {
					errs <- err
					return
				}
				results <- res
			}
		}()
	}
	for i := 0; i < workers*iters; i++ {
		select {
		case err := <-errs:
			close(stop)
			t.Fatal(err)
		case res := <-results:
			if !reflect.DeepEqual(res, want) {
				close(stop)
				t.Fatalf("result drifted under toggle flips:\n got %+v\nwant %+v", res, want)
			}
		}
	}
	close(stop)
	wg.Wait()
}

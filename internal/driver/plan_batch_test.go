package driver

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
)

// batchOracleDomain is a three-level tree with two nested sibling
// subtrees plus a flat sibling, so both strategies recurse below the
// first level.
func batchOracleDomain() *nest.Domain {
	cfg := nest.Root("p", 340, 360)
	a := cfg.AddChild("a", 600, 540, 3, 10, 10)
	a.AddChild("a1", 280, 240, 3, 40, 50)
	a.AddChild("a2", 260, 220, 3, 320, 280)
	b := cfg.AddChild("b", 330, 300, 3, 220, 220)
	b.AddChild("b1", 150, 150, 3, 30, 30)
	cfg.AddChild("c", 120, 150, 3, 215, 15)
	return cfg
}

// TestBuildPlansMatchesReference: a batch through BuildPlans must equal
// a per-job BuildPlan loop, job for job (DeepEqual and JSON bytes), over
// every strategy x alloc-policy x map-kind combination, with an error
// (a zero-rank job in the middle) surfacing in the matching slot without
// harming its neighbours.
func TestBuildPlansMatchesReference(t *testing.T) {
	cfg := batchOracleDomain()
	var jobs []PlanJob
	for _, strat := range []Strategy{Sequential, Concurrent} {
		for _, pol := range []AllocPolicy{AllocPredicted, AllocNaivePoints, AllocEqual, AllocStripsPredicted} {
			for _, kind := range []MapKind{MapSequential, MapTXYZ, MapPartition, MapMultiLevel} {
				jobs = append(jobs, PlanJob{Config: cfg, Options: Options{
					Machine: machine.BGL(), Ranks: 64,
					Strategy: strat, Alloc: pol, MapKind: kind,
					IOMode: 1, OutputEverySteps: 4,
				}})
			}
		}
	}
	const bad = 13
	jobs[bad].Options.Ranks = 0

	got, gotErr := BuildPlans(jobs, 4)
	for i, j := range jobs {
		want, wantErr := BuildPlan(j.Config, j.Options)
		if (wantErr == nil) != (gotErr[i] == nil) {
			t.Fatalf("job %d: BuildPlan err %v, batch err %v", i, wantErr, gotErr[i])
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(want, got[i]) {
			t.Errorf("job %d: batch plan differs from BuildPlan", i)
			continue
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got[i])
		if string(wb) != string(gb) {
			t.Errorf("job %d: plan bytes differ:\nsingle: %s\nbatch:  %s", i, wb, gb)
		}
	}
	if gotErr[bad] == nil {
		t.Errorf("job %d (zero ranks) should have failed", bad)
	}
}

// TestCachedPredictorTrainsOnce is the thundering-herd guard: many
// concurrent first-touch BuildPlans batches for one machine must share
// a single training pass and return identical plans. Run under -race in
// CI.
func TestCachedPredictorTrainsOnce(t *testing.T) {
	ResetPredictorCache()
	defer ResetPredictorCache()
	before := TrainCalls()
	cfg := batchOracleDomain()
	opt := Options{Machine: machine.BGL(), Ranks: 64, Strategy: Concurrent, MapKind: MapMultiLevel}
	const callers = 16
	out := make([]string, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plans, errs := BuildPlans([]PlanJob{{Config: cfg, Options: opt}, {Config: cfg, Options: opt}}, 2)
			for _, err := range errs {
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
					return
				}
			}
			b, _ := json.Marshal(plans)
			out[i] = string(b)
		}(i)
	}
	close(start)
	wg.Wait()
	if got := TrainCalls() - before; got != 1 {
		t.Fatalf("%d concurrent first-touch batches trained %d times, want 1", callers, got)
	}
	for i := 1; i < callers; i++ {
		if out[i] != out[0] {
			t.Fatalf("caller %d got different plans", i)
		}
	}
}

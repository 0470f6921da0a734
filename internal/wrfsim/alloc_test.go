package wrfsim

import (
	"runtime"
	"testing"

	"nestwrf/internal/nest"
)

// Budgets for a 512-rank concurrent run of the paper's domain, from
// measureRuns on go1.24 linux/amd64 over 110 runs of the test on a
// 2-core host: two steps made 8.24–8.57 objects per rank outside the
// payload pool and 3 301–3 346 pool misses (6.5 per rank); steps 3 and
// 4 added −147–152 objects outside the pool (runtime objects that
// garbage collections free and the runtime makes again) and 237–296
// misses, which grow with how far ranks drift apart in real time. The
// runtime these budgets replaced made 16.1 objects per rank outside
// the pool and added 340–440 over two steps: a queue's spilled
// messages, the per-rank nest and inbox slices, the phase table, the
// first queue block and every split member's communicator were objects
// of their own.
const (
	maxRunAllocsPerRank = 10
	maxRunMissesPerRank = 8
	maxExtraStepsAllocs = 300
	maxExtraStepsMisses = 400
)

// runCost is the mean of what a run allocates: heap objects, the
// payload-pool misses among them, and bytes.
type runCost struct{ objects, misses, bytes float64 }

// nonPool is the objects a run allocates outside the payload pool.
func (c runCost) nonPool() float64 { return c.objects - c.misses }

// measureRuns runs cfg under opt n times after one warm-up run and
// returns the mean cost of a run. Like testing.AllocsPerRun it counts
// on one P; a miss is one object (allocPayload's make).
func measureRuns(t *testing.T, cfg *nest.Domain, opt Options, n int) runCost {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var c runCost
	var before, after runtime.MemStats
	for i := 0; i <= n; i++ {
		runtime.ReadMemStats(&before)
		out, err := Run(cfg, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			c.objects += float64(after.Mallocs - before.Mallocs)
			c.misses += float64(out.Pools.Misses)
			c.bytes += float64(after.TotalAlloc - before.TotalAlloc)
		}
	}
	c.objects /= float64(n)
	c.misses /= float64(n)
	c.bytes /= float64(n)
	return c
}

// A rank allocates nothing after set-up: its state comes from slabs
// that the world, the rank or its group owns, and steady-state delivery
// reuses its queues and payloads. So a run costs a bounded number of
// objects per rank, and more steps cost next to nothing but the pool
// misses of ranks drifting further apart.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	opt := baseOpts(Concurrent)
	opt.Ranks, opt.Steps = 512, 2
	two := measureRuns(t, paperConfig(), opt, 3)
	opt.Steps = 4
	four := measureRuns(t, paperConfig(), opt, 3)
	t.Logf("two steps: %.2f objects a rank outside the pool, %.0f pool misses; steps 3 and 4: %.0f objects outside the pool, %.0f misses",
		two.nonPool()/512, two.misses, four.nonPool()-two.nonPool(), four.misses-two.misses)
	if perRank := two.nonPool() / 512; perRank > maxRunAllocsPerRank {
		t.Errorf("two steps on 512 ranks: %.2f objects per rank outside the payload pool, want at most %d", perRank, maxRunAllocsPerRank)
	}
	if perRank := two.misses / 512; perRank > maxRunMissesPerRank {
		t.Errorf("two steps on 512 ranks: %.2f pool misses per rank, want at most %d", perRank, maxRunMissesPerRank)
	}
	if extra := four.nonPool() - two.nonPool(); extra > maxExtraStepsAllocs {
		t.Errorf("steps 3 and 4 on 512 ranks: %.0f objects outside the payload pool, want at most %d", extra, maxExtraStepsAllocs)
	}
	if extra := four.misses - two.misses; extra > maxExtraStepsMisses {
		t.Errorf("steps 3 and 4 on 512 ranks: %.0f pool misses, want at most %d", extra, maxExtraStepsMisses)
	}
}

// An output event gathers each domain into the state its root keeps
// for the run and leaves only a record, so a run's allocated bytes do
// not grow by a state per event. Measured: −3.5 to +3.4 KB per extra
// event; runs that kept every event's states added 212–219 KB, all
// three domains' fields.
func TestOutputEventsReuseStates(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	smallest := float64(24 * 48 * 36) // nest2's three float64 fields
	for _, s := range []Strategy{Sequential, Concurrent} {
		opt := baseOptsForIO(s)
		opt.Steps, opt.OutputEverySteps = 4, 4
		one := measureRuns(t, testConfig(), opt, 5)
		opt.OutputEverySteps = 1
		four := measureRuns(t, testConfig(), opt, 5)
		if extra := (four.bytes - one.bytes) / 3; extra >= smallest {
			t.Errorf("%v: %.0f bytes per extra output event, want less than one %.0f-byte state", s, extra, smallest)
		}
	}
}

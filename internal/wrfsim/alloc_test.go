package wrfsim

import "testing"

// maxRunAllocsPerRank and maxExtraStepsAllocs are runAllocs as
// measured on go1.24 linux/amd64, with headroom: a 512-rank concurrent
// run of the paper's domain made 14.2–15.0 objects per rank over two
// steps (plans and world set-up included), and two more steps added
// 200–330, all of them payload-pool misses while ranks drift further
// apart than before. The runtime these budgets replaced measured 22.5
// per rank and +650–720: a queue's spilled messages, the per-rank nest
// and inbox slices, the phase table, the first queue block and every
// split member's communicator were objects of their own.
const (
	maxRunAllocsPerRank = 16
	maxExtraStepsAllocs = 400
)

// runAllocs is what one 512-rank concurrent run of the paper's domain
// allocates over the given number of parent steps.
func runAllocs(t *testing.T, steps int) float64 {
	opt := baseOpts(Concurrent)
	opt.Ranks, opt.Steps = 512, steps
	cfg := paperConfig()
	return testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg, opt); err != nil {
			t.Error(err)
		}
	})
}

// A rank allocates nothing after set-up: its state comes from slabs
// that the world, the rank or its group owns, and steady-state delivery
// reuses its queues and payloads. So a run costs a bounded number of
// objects per rank, and more steps cost next to nothing.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	two, four := runAllocs(t, 2), runAllocs(t, 4)
	if perRank := two / 512; perRank > maxRunAllocsPerRank {
		t.Errorf("two steps on 512 ranks: %.0f allocations, %.2f per rank, want at most %d", two, perRank, maxRunAllocsPerRank)
	}
	if extra := four - two; extra > maxExtraStepsAllocs {
		t.Errorf("steps 3 and 4 on 512 ranks: %.0f allocations, want at most %d", extra, maxExtraStepsAllocs)
	}
}

package planserve

import (
	"sync"
	"time"

	"nestwrf/internal/driver"
	"nestwrf/internal/metrics"
	"nestwrf/internal/nest"
)

// coalesceMax caps a batch; coalesceWindow is how long the first
// pending miss waits for others. The window is a variable only so
// tests can widen it past a slow scheduler's jitter.
const coalesceMax = 64

var coalesceWindow = 500 * time.Microsecond

// planJob is one coalesced cache-miss plan: the singleflight leader
// for a distinct key parks here until the batch it joined is built.
type planJob struct {
	cfg  *nest.Domain
	opt  driver.Options
	plan *driver.Plan
	err  error
	done chan struct{} // closed once plan/err are set
}

// coalescer batches concurrently arriving distinct-key plan misses:
// the first miss arms a short window timer, further misses pile onto
// the pending list, and when the window lapses (or the batch is full)
// every pending plan is built in one driver.BuildPlans pass under one
// worker-pool slot. Batching shares little: CachedPredictor already
// trains one predictor per machine and model's scratch pools are
// process-global, so a lone miss would share both too. What the
// coalescer buys is its window — an admission delay that keeps a burst
// of misses from saturating every core, which holds peak RSS down
// (DESIGN §14 has the measurement).
type coalescer struct {
	// sem is the server's worker pool: each flush claims one slot, so
	// coalesced planning respects the pool that gates uncoalesced
	// misses, and BuildPlans fans out over cap(sem) workers.
	sem chan struct{}
	reg *metrics.Registry

	mu      sync.Mutex
	pending []*planJob
	timerOn bool
	batches uint64
	planned uint64
}

// submit queues one miss and returns immediately; the caller waits on
// j.done or its deadline. A full batch flushes on a goroutine of its
// own, as the window timer (armed by the first pending job) does, so
// the submitter that filled it keeps its deadline too.
func (co *coalescer) submit(j *planJob) {
	co.mu.Lock()
	co.pending = append(co.pending, j)
	if len(co.pending) >= coalesceMax {
		batch := co.pending
		co.pending = nil
		// A still-armed timer finds an empty pending list and no-ops.
		co.mu.Unlock()
		go co.flush(batch)
		return
	}
	if !co.timerOn {
		co.timerOn = true
		time.AfterFunc(coalesceWindow, co.timerFlush)
	}
	co.mu.Unlock()
}

func (co *coalescer) timerFlush() {
	co.mu.Lock()
	batch := co.pending
	co.pending = nil
	co.timerOn = false
	co.mu.Unlock()
	if len(batch) > 0 {
		co.flush(batch)
	}
}

// flush builds every job in one BuildPlans pass and releases the
// waiters.
func (co *coalescer) flush(batch []*planJob) {
	co.sem <- struct{}{}
	defer func() { <-co.sem }()
	jobs := make([]driver.PlanJob, len(batch))
	for i, j := range batch {
		jobs[i] = driver.PlanJob{Config: j.cfg, Options: j.opt}
	}
	plans, errs := driver.BuildPlans(jobs, cap(co.sem))
	co.mu.Lock()
	co.batches++
	co.planned += uint64(len(batch))
	co.mu.Unlock()
	co.reg.Counter("planserve_coalesced_batches_total").Inc()
	co.reg.Counter("planserve_coalesced_plans_total").Add(float64(len(batch)))
	for i, j := range batch {
		j.plan, j.err = plans[i], errs[i]
		close(j.done)
	}
}

// stats returns how many flushes ran and how many plans they built.
func (co *coalescer) stats() (batches, planned uint64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.batches, co.planned
}

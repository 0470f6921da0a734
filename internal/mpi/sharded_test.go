package mpi

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// mixedProgram exercises every runtime feature whose virtual-time
// behavior must match between the sharded and reference runtimes:
// point-to-point rings with per-rank payload sizes and compute,
// phase accounting, barriers, reductions, splits and sub-communicator
// traffic.
func mixedProgram(n int) func(p *Proc) error {
	return func(p *Proc) error {
		w := p.World()
		me := w.Rank()
		p.BeginPhase("ring")
		for it := 0; it < 3; it++ {
			buf := w.AllocPayload(16 + 8*(me%4))
			for i := range buf {
				buf[i] = float64(me*1000 + it)
			}
			w.SendOwned((me+1)%n, 7, buf)
			d, err := w.Recv((me+n-1)%n, 7)
			if err != nil {
				return err
			}
			p.Compute(float64(me%5) * 1e-6)
			w.FreePayload(d)
		}
		p.BeginPhase("collectives")
		if err := w.Barrier(); err != nil {
			return err
		}
		if _, err := w.Allreduce(OpSum, []float64{float64(me), 1}); err != nil {
			return err
		}
		sub, err := w.Split(me%2, me)
		if err != nil {
			return err
		}
		if sn := sub.Size(); sn > 1 {
			sub.Send((sub.Rank()+1)%sn, 9, []float64{float64(me)})
			d, err := sub.Recv((sub.Rank()+sn-1)%sn, 9)
			if err != nil {
				return err
			}
			sub.FreePayload(d)
		}
		return sub.Barrier()
	}
}

// runSnapshot captures every virtual-time observable of a finished
// run. Wall is real time and legitimately varies, so it is zeroed.
type runSnapshot struct {
	clocks, waits []float64
	phases        [][]Phase
}

func snapshotRun(t *testing.T, n int, fn func(p *Proc) error, ref bool) runSnapshot {
	t.Helper()
	procs, err := run(n, tm(), fn, ref)
	if err != nil {
		t.Fatal(err)
	}
	s := runSnapshot{
		clocks: make([]float64, n),
		waits:  make([]float64, n),
		phases: make([][]Phase, n),
	}
	for i, p := range procs {
		s.clocks[i] = p.Clock()
		s.waits[i] = p.WaitTime()
		phs := p.Phases()
		for j := range phs {
			phs[j].Stats.Wall = 0
		}
		s.phases[i] = phs
	}
	return s
}

// equalRuns compares two snapshots for exact (bitwise) equality.
func equalRuns(t *testing.T, label string, a, b runSnapshot) {
	t.Helper()
	for r := range a.clocks {
		if a.clocks[r] != b.clocks[r] {
			t.Fatalf("%s: rank %d clock %v != %v", label, r, a.clocks[r], b.clocks[r])
		}
		if a.waits[r] != b.waits[r] {
			t.Fatalf("%s: rank %d wait %v != %v", label, r, a.waits[r], b.waits[r])
		}
		if len(a.phases[r]) != len(b.phases[r]) {
			t.Fatalf("%s: rank %d phase count %d != %d", label, r, len(a.phases[r]), len(b.phases[r]))
		}
		for j := range a.phases[r] {
			if a.phases[r][j] != b.phases[r][j] {
				t.Fatalf("%s: rank %d phase %q differs: %+v != %+v",
					label, r, a.phases[r][j].Name, a.phases[r][j], b.phases[r][j])
			}
		}
	}
}

// The sharded runtime must be bit-identical to the retained reference
// runtime in every virtual-time observable: per-rank clocks, wait
// times and phase stats.
func TestShardedMatchesReference(t *testing.T) {
	const n = 24
	sharded := snapshotRun(t, n, mixedProgram(n), false)
	ref := snapshotRun(t, n, mixedProgram(n), true)
	equalRuns(t, "sharded vs reference", sharded, ref)
}

// Virtual time must not depend on goroutine scheduling: repeated runs
// and GOMAXPROCS=1 vs N are bit-identical, at a rank count well beyond
// anything a single mutex was tuned for.
func TestHighRankDeterminism(t *testing.T) {
	n := 2048
	if raceEnabled {
		n = 256 // the race detector multiplies per-goroutine cost
	}
	first := snapshotRun(t, n, mixedProgram(n), false)
	again := snapshotRun(t, n, mixedProgram(n), false)
	equalRuns(t, "run-to-run", first, again)

	old := runtime.GOMAXPROCS(1)
	serial := snapshotRun(t, n, mixedProgram(n), false)
	runtime.GOMAXPROCS(old)
	equalRuns(t, "GOMAXPROCS=1 vs N", first, serial)
}

// Deadlock reports must say how many ranks were stuck and what a
// sample of them was waiting on, in both runtimes, while remaining
// errors.Is-compatible with the ErrDeadlock sentinel.
func TestDeadlockErrorDetail(t *testing.T) {
	for _, ref := range []bool{false, true} {
		const n = 3
		_, err := run(n, tm(), func(p *Proc) error {
			_, err := p.World().Recv((p.Rank()+1)%n, 99)
			return err
		}, ref)
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("ref=%v: errors.Is(err, ErrDeadlock) = false for %v", ref, err)
		}
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("ref=%v: error %v is not a *DeadlockError", ref, err)
		}
		if de.Blocked != n || de.Alive != n {
			t.Errorf("ref=%v: Blocked=%d Alive=%d, want %d/%d", ref, de.Blocked, de.Alive, n, n)
		}
		if len(de.Sample) != n {
			t.Fatalf("ref=%v: sample has %d entries, want %d", ref, len(de.Sample), n)
		}
		for _, s := range de.Sample {
			if s.Tag != 99 || s.Comm != 0 || s.Src != (s.Rank+1)%n {
				t.Errorf("ref=%v: unexpected sample entry %+v", ref, s)
			}
		}
	}
}

// The deadlock sample must stay bounded on big worlds.
func TestDeadlockSampleBounded(t *testing.T) {
	const n = 64
	_, err := Run(n, tm(), func(p *Proc) error {
		_, err := p.World().Recv((p.Rank()+1)%n, 5)
		return err
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a *DeadlockError", err)
	}
	if de.Blocked != n {
		t.Errorf("Blocked=%d, want %d", de.Blocked, n)
	}
	if len(de.Sample) != deadlockSampleCap {
		t.Errorf("sample has %d entries, want cap %d", len(de.Sample), deadlockSampleCap)
	}
}

// poolSizes are the payload lengths the pool property test draws from:
// classes 0, 2, 4, 7, 10, 13 and 14 (the last two past a rank cache's
// two-buffer classes).
var poolSizes = []int{1, 3, 16, 100, 1000, 5000, 9000}

// poolSendCount is how many owned buffers rank `from` sends its right
// neighbour in one round: a pure function of the seed, so the receiver
// knows how many to expect.
func poolSendCount(seed uint64, round, from int) int {
	return rand.New(rand.NewPCG(seed, uint64(round<<16|from))).IntN(4)
}

// The payload pools keep every buffer freed into them, and that is
// bounded: under seeded random alloc/free interleavings across ranks
// and size classes, with cross-rank owned sends, each class retains at
// most its peak simultaneously-live population (plus what the sharded
// runtime's rank caches can park, which a miss cannot see), and the
// counters balance — hits+misses = allocations, frees+drops = frees,
// no drops for in-class buffers.
func TestPoolBoundedAndStats(t *testing.T) {
	const n, rounds = 5, 40
	for _, ref := range []bool{false, true} {
		for seed := uint64(1); seed <= 6; seed++ {
			// mu serialises each pool call with the test's own
			// accounting, so live is exact at every miss.
			var (
				mu            sync.Mutex
				live, peak    [payloadClasses]int
				allocs, frees uint64
			)
			procs, err := run(n, tm(), func(p *Proc) error {
				w := p.World()
				me := w.Rank()
				rng := rand.New(rand.NewPCG(seed, uint64(me)))
				var held [][]float64
				alloc := func() []float64 {
					sz := poolSizes[rng.IntN(len(poolSizes))]
					mu.Lock()
					defer mu.Unlock()
					b := w.AllocPayload(sz)
					c := payloadClass(sz)
					allocs++
					live[c]++
					peak[c] = max(peak[c], live[c])
					return b
				}
				free := func(b []float64) {
					mu.Lock()
					defer mu.Unlock()
					w.FreePayload(b)
					frees++
					live[payloadClass(cap(b))]--
				}
				for r := 0; r < rounds; r++ {
					for k := rng.IntN(8); k > 0; k-- {
						if len(held) > 0 && rng.IntN(2) == 0 {
							i := rng.IntN(len(held))
							free(held[i])
							held[i] = held[len(held)-1]
							held = held[:len(held)-1]
						} else {
							held = append(held, alloc())
						}
					}
					for k := poolSendCount(seed, r, me); k > 0; k-- {
						w.SendOwned((me+1)%n, r, alloc())
					}
					for k := poolSendCount(seed, r, (me+n-1)%n); k > 0; k-- {
						d, err := w.Recv((me+n-1)%n, r)
						if err != nil {
							return err
						}
						held = append(held, d)
					}
				}
				for _, b := range held {
					free(b)
				}
				return nil
			}, ref)
			if err != nil {
				t.Fatal(err)
			}
			s := procs[0].PoolStats()
			if s.Hits+s.Misses != allocs {
				t.Errorf("ref=%v seed=%d: hits %d + misses %d != %d allocations", ref, seed, s.Hits, s.Misses, allocs)
			}
			if s.Frees+s.Drops != frees || s.Drops != 0 {
				t.Errorf("ref=%v seed=%d: frees %d + drops %d != %d frees, or in-class drops", ref, seed, s.Frees, s.Drops, frees)
			}
			// Everything was freed, so the lists hold every buffer the
			// pool ever made.
			if s.Buffers != int(s.Misses) {
				t.Errorf("ref=%v seed=%d: retained %d buffers, want all %d made", ref, seed, s.Buffers, s.Misses)
			}
			w := procs[0].w
			for c := range peak {
				retained, bound := len(w.classes[c].free), peak[c]+n*rankCacheCap(c)
				if ref {
					retained, bound = len(w.pool.free[c]), peak[c]
				}
				if retained > bound {
					t.Errorf("ref=%v seed=%d: class %d retains %d buffers, peak live %d, bound %d",
						ref, seed, c, retained, peak[c], bound)
				}
			}
		}
	}
}

// Drops counts only buffers larger than the largest size class; the
// lists themselves never drop.
func TestPoolDropsOversized(t *testing.T) {
	if raceEnabled {
		t.Skip("checkptr rejects the oversized slice header")
	}
	for _, ref := range []bool{false, true} {
		procs, err := run(1, tm(), func(p *Proc) error {
			var x [1]float64
			// A header claiming 1<<payloadClasses floats: freePayload
			// reads only its capacity, so nothing that large is allocated.
			p.World().FreePayload(unsafe.Slice(&x[0], 1<<payloadClasses))
			p.World().FreePayload(p.World().AllocPayload(8))
			return nil
		}, ref)
		if err != nil {
			t.Fatal(err)
		}
		if s := procs[0].PoolStats(); s.Drops != 1 || s.Frees != 1 || s.Buffers != 1 {
			t.Errorf("ref=%v: drops/frees/buffers = %d/%d/%d, want 1/1/1", ref, s.Drops, s.Frees, s.Buffers)
		}
	}
}

// World setup and splits must share canonical rank lists: every rank's
// world communicator aliases one slice, and every member of a split
// group aliases the root's canonical list (this is what makes setup
// O(n) total instead of O(n²)).
func TestCanonicalRankListAliasing(t *testing.T) {
	const n = 8
	subs := make([]*Comm, n)
	procs, err := Run(n, tm(), func(p *Proc) error {
		sub, err := p.World().Split(p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		subs[p.Rank()] = sub
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		if &procs[0].World().ranks[0] != &procs[r].World().ranks[0] {
			t.Fatalf("rank %d world comm does not alias the shared rank list", r)
		}
	}
	for r := 2; r < n; r++ {
		if &subs[r].ranks[0] != &subs[r%2].ranks[0] {
			t.Fatalf("rank %d split comm does not alias its group's canonical list", r)
		}
	}
}

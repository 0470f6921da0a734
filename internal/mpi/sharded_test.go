package mpi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// mixedProgram exercises every runtime feature whose virtual-time
// behavior is pinned to the reference runtime's: point-to-point rings
// with per-rank payload sizes and compute, phase accounting, barriers,
// reductions, splits and sub-communicator traffic.
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

func snapshotRun(t *testing.T, n int, fn func(p *Proc) error) runSnapshot {
	t.Helper()
	procs, err := Run(n, tm(), fn)
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

// pinnedSnapshot is a runSnapshot in pinned form: rank 0's and the
// last rank's clock as IEEE-754 bit patterns, so a drift says where,
// and the SHA-256 of every rank's clock, wait and phase stats in rank
// order.
type pinnedSnapshot struct {
	clock0, clockLast uint64
	digest            string
}

// pin reduces s to its pinned form.
func (s runSnapshot) pin() pinnedSnapshot {
	h := sha256.New()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	putF := func(f float64) { put(math.Float64bits(f)) }
	for r := range s.clocks {
		buf = buf[:0]
		putF(s.clocks[r])
		putF(s.waits[r])
		put(uint64(len(s.phases[r])))
		for _, ph := range s.phases[r] {
			put(uint64(len(ph.Name)))
			buf = append(buf, ph.Name...)
			st := ph.Stats
			putF(st.Compute)
			putF(st.Wait)
			putF(st.Transfer)
			put(uint64(st.SendCount))
			put(uint64(st.RecvCount))
			put(uint64(st.SendBytes))
			put(uint64(st.RecvBytes))
			putF(st.Wall)
		}
		h.Write(buf)
	}
	return pinnedSnapshot{
		clock0:    math.Float64bits(s.clocks[0]),
		clockLast: math.Float64bits(s.clocks[len(s.clocks)-1]),
		digest:    hex.EncodeToString(h.Sum(nil)),
	}
}

// matchesReference fails t unless s pins to want.
func matchesReference(t *testing.T, label string, s runSnapshot, want pinnedSnapshot) {
	t.Helper()
	if got := s.pin(); got != want {
		t.Errorf("%s: virtual-time observables drifted from the reference runtime's:\n got %#v\nwant %#v", label, got, want)
	}
}

// referenceMixed pins mixedProgram(n) by rank count n to what the
// single-mutex reference runtime (one world-wide lock over every
// mailbox and the payload pool) produced at the parent of the commit
// that deleted it; the sharded runtime produced the same pins there.
var referenceMixed = map[int]pinnedSnapshot{
	1:    {0x3ecc6315ac982c90, 0x3ecc6315ac982c90, "b4c83c45f3d20ee908004f25da9b5c202de5092783e75fd40bf320edb31c1680"},
	7:    {0x3ef6b3173b7d5105, 0x3ef7bf86b588afde, "b1928295ee8ce6ab979f220e1e293caffc8b3fec3210972a2af17b237c6ee819"},
	24:   {0x3ef6b3173b7d5105, 0x3ef7bf86b588afde, "0f58b0f8b7cc5b1f0644101344c4d0fb3a2de629ed0367861a8d6214a271889c"},
	256:  {0x3ef6b3173b7d5105, 0x3ef7bf86b588afde, "2c2b85476635d4466e835b0142cc52c37ea9b2f044345efb03a898496bad4a30"},
	2048: {0x3ef6b3173b7d5105, 0x3ef7bf86b588afde, "9204c5f27eb1f658b4d9072234fa184d1103671eff7667bc36fb37e574143c10"},
}

// The runtime must be bit-identical to the reference runtime in every
// virtual-time observable — per-rank clocks, wait times and phase
// stats — on one rank, a prime count, 24 and 256 ranks.
func TestShardedMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 24, 256} {
		matchesReference(t, fmt.Sprintf("mixedProgram(%d)", n), snapshotRun(t, n, mixedProgram(n)), referenceMixed[n])
	}
}

// Virtual time must not depend on goroutine scheduling: repeated runs
// and GOMAXPROCS=1 vs N are bit-identical, and equal the reference
// runtime's, at a rank count well beyond anything a single mutex was
// tuned for.
func TestHighRankDeterminism(t *testing.T) {
	n := 2048
	if raceEnabled {
		n = 256 // the race detector multiplies per-goroutine cost
	}
	first := snapshotRun(t, n, mixedProgram(n))
	matchesReference(t, fmt.Sprintf("mixedProgram(%d)", n), first, referenceMixed[n])
	again := snapshotRun(t, n, mixedProgram(n))
	equalRuns(t, "run-to-run", first, again)

	old := runtime.GOMAXPROCS(1)
	serial := snapshotRun(t, n, mixedProgram(n))
	runtime.GOMAXPROCS(old)
	equalRuns(t, "GOMAXPROCS=1 vs N", first, serial)
}

// Deadlock reports must say how many ranks were stuck and what a
// sample of them was waiting on, while remaining errors.Is-compatible
// with the ErrDeadlock sentinel.
func TestDeadlockErrorDetail(t *testing.T) {
	const n = 3
	_, err := Run(n, tm(), func(p *Proc) error {
		_, err := p.World().Recv((p.Rank()+1)%n, 99)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("errors.Is(err, ErrDeadlock) = false for %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a *DeadlockError", err)
	}
	if de.Blocked != n || de.Alive != n {
		t.Errorf("Blocked=%d Alive=%d, want %d/%d", de.Blocked, de.Alive, n, n)
	}
	if len(de.Sample) != n {
		t.Fatalf("sample has %d entries, want %d", len(de.Sample), n)
	}
	for _, s := range de.Sample {
		if s.Tag != 99 || s.Comm != 0 || s.Src != (s.Rank+1)%n {
			t.Errorf("unexpected sample entry %+v", s)
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
// most its peak simultaneously-live population (plus what the rank
// caches can park, which a miss cannot see), and the counters balance
// — hits+misses = allocations, frees+drops = frees, no drops for
// in-class buffers.
func TestPoolBoundedAndStats(t *testing.T) {
	const n, rounds = 5, 40
	for seed := uint64(1); seed <= 6; seed++ {
		// mu serialises each pool call with the test's own
		// accounting, so live is exact at every miss.
		var (
			mu            sync.Mutex
			live, peak    [payloadClasses]int
			allocs, frees uint64
		)
		procs, err := Run(n, tm(), func(p *Proc) error {
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
		})
		if err != nil {
			t.Fatal(err)
		}
		s := procs[0].PoolStats()
		if s.Hits+s.Misses != allocs {
			t.Errorf("seed=%d: hits %d + misses %d != %d allocations", seed, s.Hits, s.Misses, allocs)
		}
		if s.Frees+s.Drops != frees || s.Drops != 0 {
			t.Errorf("seed=%d: frees %d + drops %d != %d frees, or in-class drops", seed, s.Frees, s.Drops, frees)
		}
		// Everything was freed, so the lists hold every buffer the
		// pool ever made.
		if s.Buffers != int(s.Misses) {
			t.Errorf("seed=%d: retained %d buffers, want all %d made", seed, s.Buffers, s.Misses)
		}
		w := procs[0].w
		for c := range peak {
			retained, bound := len(w.classes[c].free), peak[c]+n*rankCacheCap(c)
			if retained > bound {
				t.Errorf("seed=%d: class %d retains %d buffers, peak live %d, bound %d",
					seed, c, retained, peak[c], bound)
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
	procs, err := Run(1, tm(), func(p *Proc) error {
		var x [1]float64
		// A header claiming 1<<payloadClasses floats: freePayload
		// reads only its capacity, so nothing that large is allocated.
		p.World().FreePayload(unsafe.Slice(&x[0], 1<<payloadClasses))
		p.World().FreePayload(p.World().AllocPayload(8))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := procs[0].PoolStats(); s.Drops != 1 || s.Frees != 1 || s.Buffers != 1 {
		t.Errorf("drops/frees/buffers = %d/%d/%d, want 1/1/1", s.Drops, s.Frees, s.Buffers)
	}
}

// World setup and splits must share canonical rank lists: every rank's
// world communicator holds one group, and every member of a split group
// holds the group the root made, so all alias one canonical list (this
// is what makes setup O(n) total instead of O(n²)).
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
		if procs[0].World().g != procs[r].World().g {
			t.Fatalf("rank %d world comm does not alias the shared rank list", r)
		}
	}
	for r := 2; r < n; r++ {
		if subs[r].g != subs[r%2].g {
			t.Fatalf("rank %d split comm does not alias its group's canonical list", r)
		}
	}
}

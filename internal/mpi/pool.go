package mpi

import (
	"math/bits"
	"sync"
)

// Payload pooling. Buffers are size-classed by power of two and
// recycled through one locked free list per class. The lists are
// sharded by class, not by rank: a class's frees and allocs always meet
// in the same list, so a buffer any rank frees serves every rank's next
// miss of its class, and different classes never contend with each
// other.
//
// The lists are not capped: a list keeps every buffer freed into it.
// For pool-made buffers (what AllocPayload, Send and Recv hand out)
// that is bounded by construction — a buffer is only made on a miss,
// when every buffer of its class is live, so a class never holds more
// than its peak live population, and the lists die with the world when
// Run returns. The pool counts hits/misses/frees/drops for
// World.PoolStats.

// payloadClasses is the number of power-of-two payload size classes the
// world pool keeps (class c holds buffers with capacity >= 1<<c).
const payloadClasses = 31

// payloadClass returns the class whose buffers can hold n floats:
// the smallest c with 1<<c >= n.
func payloadClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// classPool is one size class's free list with its own lock, padded to
// two 64-byte cache lines so neighboring classes' locks and counters
// never share a line, whatever the array's alignment.
type classPool struct {
	mu                  sync.Mutex
	free                [][]float64
	hits, misses, frees uint64
	_                   [72]byte
}

// allocPayload returns a length-n scratch slice drawn from the world
// pool (or freshly allocated on a pool miss or an over-sized request).
// Contents are unspecified; callers overwrite every element.
func (w *World) allocPayload(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := payloadClass(n)
	if c >= payloadClasses {
		return make([]float64, n)
	}
	cp := &w.classes[c]
	cp.mu.Lock()
	if s := cp.free; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		cp.free = s[:len(s)-1]
		cp.hits++
		cp.mu.Unlock()
		return b[:n]
	}
	cp.misses++
	cp.mu.Unlock()
	return make([]float64, n, 1<<c)
}

// freePayload returns a buffer to the world pool. The caller must not
// touch b afterwards, and must not free the same buffer twice.
func (w *World) freePayload(b []float64) {
	c := cap(b)
	if c == 0 {
		return
	}
	// Floor class: every pooled buffer satisfies cap >= 1<<class, which
	// is exactly what allocPayload's ceiling class requires.
	cl := bits.Len(uint(c)) - 1
	if cl >= payloadClasses {
		w.drops.Add(1) // larger than the largest class: not pooled
		return
	}
	cp := &w.classes[cl]
	cp.mu.Lock()
	cp.frees++
	cp.free = append(cp.free, b[:0])
	cp.mu.Unlock()
}

// PoolStats describes the world payload pool: how traffic hit the free
// lists and what the lists currently retain.
type PoolStats struct {
	// Hits and Misses count allocPayload requests served from a free
	// list vs. freshly allocated.
	Hits, Misses uint64
	// Frees counts buffers recycled into the lists; Drops counts
	// freed buffers discarded because they are larger than the largest
	// size class (the lists themselves never drop).
	Frees, Drops uint64
	// Buffers and Bytes describe the currently retained free-list
	// population.
	Buffers int
	Bytes   int64
}

// HitRate returns the fraction of pool requests served from a free
// list (0 when there were no requests).
func (s PoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PoolStats snapshots the world's payload-pool counters. Safe to call
// concurrently with a running world: every buffer and counter lives in
// the class lists, so a snapshot describes the whole pool, consistent
// per class though not globally atomic.
func (w *World) PoolStats() PoolStats {
	s := PoolStats{Drops: w.drops.Load()}
	for c := range w.classes {
		cp := &w.classes[c]
		cp.mu.Lock()
		s.Hits += cp.hits
		s.Misses += cp.misses
		s.Frees += cp.frees
		s.Buffers += len(cp.free)
		for _, b := range cp.free {
			s.Bytes += int64(8 * cap(b))
		}
		cp.mu.Unlock()
	}
	return s
}

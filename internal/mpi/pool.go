package mpi

import (
	"math/bits"
	"sync"
)

// Payload pooling. Buffers are size-classed by power of two and
// recycled through free lists. Payloads flow sender → receiver, so the
// world pools in two tiers chosen to keep supply and demand meeting
// without a global lock:
//
//   - a lock-free per-rank cache (only the owning goroutine touches
//     it), which absorbs the symmetric steady state — halo and
//     coupling exchanges where a rank frees about what it allocates
//     each step;
//   - per-size-class locked overflow lists for the asymmetric residue.
//     Sharding the overflow by class (not by rank) matters: a class's
//     frees and allocs always meet in the same list, so cross-rank
//     producer/consumer flows still recycle, while different classes
//     never contend with each other.
//
// The overflow lists are not capped: a list keeps every buffer freed
// into it. For pool-made buffers (what AllocPayload, Send and Recv hand
// out) that is bounded by construction — a buffer is only made on a
// miss, when every buffer of its class is live or parked in a rank's
// private cache, so a class never holds more than its peak
// live-plus-cached population, and the lists die with the world when
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

// rankCacheCap bounds one size class in a rank's private cache. Kept
// small: across 10k ranks even a few buffers per class add up, and
// anything beyond the cap still pools via the overflow lists.
func rankCacheCap(c int) int {
	switch {
	case c <= 12:
		return 2
	case c < cachedClasses:
		return 1
	default:
		return 0
	}
}

// cachedClasses is the number of size classes a rank cache keeps (the
// ones rankCacheCap gives room).
const cachedClasses = 19

// rankCache is one rank's private payload cache: fixed slots, so it
// lives in the world's slab and never allocates. Only the owning
// goroutine touches it (no lock); its counters and leftover buffers
// fold into the world pool when the rank exits.
type rankCache struct {
	free        [cachedClasses][2][]float64 // class c holds free[c][:n[c]]
	n           [cachedClasses]uint8
	hits, frees uint64
}

// classPool is one size class's overflow free list with its own lock,
// padded apart so neighboring classes' locks do not false-share.
type classPool struct {
	mu                  sync.Mutex
	free                [][]float64
	hits, misses, frees uint64
	_                   [48]byte
}

// allocPayload returns a length-n scratch slice drawn from the world
// pool (or freshly allocated on a pool miss or an over-sized request).
// Contents are unspecified; callers overwrite every element.
func (w *World) allocPayload(p *Proc, n int) []float64 {
	if n == 0 {
		return nil
	}
	c := payloadClass(n)
	if c >= payloadClasses {
		return make([]float64, n)
	}
	if rc := p.pcache; c < cachedClasses && rc.n[c] > 0 {
		rc.n[c]--
		b := rc.free[c][rc.n[c]]
		rc.free[c][rc.n[c]] = nil
		rc.hits++
		return b[:n]
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
func (w *World) freePayload(p *Proc, b []float64) {
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
	if rc := p.pcache; cl < cachedClasses && int(rc.n[cl]) < rankCacheCap(cl) {
		rc.frees++
		rc.free[cl][rc.n[cl]] = b[:0]
		rc.n[cl]++
		return
	}
	cp := &w.classes[cl]
	cp.mu.Lock()
	cp.frees++
	cp.free = append(cp.free, b[:0])
	cp.mu.Unlock()
}

// foldRankCache folds an exiting rank's private cache into the
// overflow lists and the world's folded counters, so post-run
// PoolStats sees the complete picture.
func (w *World) foldRankCache(rc *rankCache) {
	w.localHits.Add(rc.hits)
	w.localFrees.Add(rc.frees)
	for cl := range rc.free {
		if rc.n[cl] == 0 {
			continue
		}
		cp := &w.classes[cl]
		cp.mu.Lock()
		cp.free = append(cp.free, rc.free[cl][:rc.n[cl]]...)
		cp.mu.Unlock()
		rc.free[cl], rc.n[cl] = [2][]float64{}, 0
	}
}

// PoolStats describes the world payload pool: how traffic hit the free
// lists and what the lists currently retain.
type PoolStats struct {
	// Hits and Misses count allocPayload requests served from a free
	// list (per-rank cache or shared lists) vs. freshly allocated.
	Hits, Misses uint64
	// Frees counts buffers recycled into the lists; Drops counts
	// freed buffers discarded because they are larger than the largest
	// size class (the lists themselves never drop).
	Frees, Drops uint64
	// Buffers and Bytes describe the currently retained free-list
	// population (excluding ranks' private caches until they exit).
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
// concurrently with a running world (the snapshot is per-class
// consistent, not globally atomic); per-rank cache activity folds in
// when each rank exits, so post-run snapshots are complete.
func (w *World) PoolStats() PoolStats {
	s := PoolStats{
		Hits:  w.localHits.Load(),
		Frees: w.localFrees.Load(),
		Drops: w.drops.Load(),
	}
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

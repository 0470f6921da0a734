package mpi

import "sync"

// Sharded runtime (DESIGN.md Section 13): per-rank mailbox locks, an
// atomic packed (blocked, queued) counter pair, and a slow-path
// deadlock detector. Lock order is strictly mailbox-at-a-time —
// no code path ever holds two mailbox locks — and the detector mutex
// is only ever taken with no mailbox lock held, so the runtime is
// trivially deadlock-free itself.
//
// The queued half counts only messages that can still unblock someone.
// A message is parked — held in its mailbox but left out of the count —
// while its receiver is blocked on a different key, and for good once
// its receiver has exited. Without parking, a rank that fails strands
// its peers with unrelated or undeliverable messages still "queued",
// and the world hangs instead of reporting the failure.

// queuedMask extracts the queued half of World.packed; the blocked
// half lives in the upper 32 bits.
const queuedMask = (1 << 32) - 1

// linearQueues is the queue count up to which a mailbox finds a queue
// by scanning: a rank of a stencil code talks to a handful of
// (src, tag, comm) keys, fewer than a hash costs.
const linearQueues = 32

// inlineMsgs is how many messages a queue holds inline: a halo
// neighbor one step ahead leaves two on one key.
const inlineMsgs = 2

// msgq is one (src, tag, comm) receive queue. Queues are created on
// first use and then live for the world's lifetime. A queue holds its
// inlineMsgs oldest messages in an inline ring, so a stencil code's
// queues never allocate; a message that finds the ring full, or the
// queue already spilled, waits in its mailbox's overflow. Every inline
// message is thus older than every spilled one. The overflow lives in
// the mailbox, not here, so a queue stays 88 bytes: the queue slab is
// most of a high-rank world's mailbox memory, and a larger queue cost
// the 8192-rank benchmark ≈ 7 % of its peak RSS.
type msgq struct {
	key         matchKey // the mailbox scans for it
	in          [inlineMsgs]message
	first, held uint8 // the ring: held messages from in[first]
	spilled     int32 // this queue's messages in the mailbox's overflow
}

// empty reports whether no message is queued.
func (q *msgq) empty() bool { return q.held == 0 && q.spilled == 0 }

// spilledMsg is a message in its mailbox's overflow, with the index
// of its queue.
type spilledMsg struct {
	q   int32
	msg message
}

// mailbox is one rank's receive state: its queues, its private lock,
// and the condition variable only the owning rank ever waits on.
// Senders lock exactly the destination mailbox, so traffic between
// disjoint rank pairs never contends, and a delivery wakes the
// receiving rank only when it waits on the delivered key.
//
// Queues sit in one slice in first-use order and are found by a linear
// scan. The slice starts as the rank's block of the world's queue slab;
// only a mailbox that outgrows it gets an array of its own, and only
// one that outgrows linearQueues — the root of a world-wide Gather,
// with one queue per source — builds a map index over the slice, so
// those lookups stay O(1) while an ordinary rank's mailbox costs no
// heap object at all.
type mailbox struct {
	mu   sync.Mutex
	cond sync.Cond // L is &mu, set at world setup
	qs   []msgq
	idx  map[matchKey]int32 // key -> index in qs; nil up to linearQueues

	// over holds, from overHead on and in arrival order, the messages
	// their queues spilled. Its backing array is reused once drained, so
	// steady-state delivery never allocates.
	over     []spilledMsg
	overHead int32

	// count is the number of messages held; parked of them are not in
	// World.packed's queued half (all while dead, the ones not matching
	// wkey while waiting, none otherwise).
	count, parked int32

	// waiting says the rank is blocked in the receive wkey describes,
	// valid while the rank is counted in the blocked half of
	// World.packed; it feeds the deadlock report's sample. dead says the
	// rank has exited and will receive nothing more.
	waiting, dead bool
	wkey          matchKey

	// Pad to 192 bytes, three whole cache lines, so in the world's
	// mailbox slab neighboring ranks' hot send/recv locks never share a
	// line (TestMailboxFillsCacheLines).
	_ [40]byte
}

// queue returns the index in mb.qs of the mailbox's queue for key, or
// -1 when no message with that key was ever sent. Caller holds mb.mu.
func (mb *mailbox) queue(key matchKey) int32 {
	if mb.idx != nil {
		if i, ok := mb.idx[key]; ok {
			return i
		}
		return -1
	}
	for i := range mb.qs {
		if mb.qs[i].key == key {
			return int32(i)
		}
	}
	return -1
}

// queueBlock is the number of queues a mailbox takes from the world's
// queue slab: at 8192 ranks of the paper's four-sibling domain 91 % of
// mailboxes hold 7-16 queues, so an ordinary rank never allocates one.
const queueBlock = 16

// queueFor returns the index of dst's mailbox queue for key, creating
// the queue on first use. Caller holds the mailbox's lock.
func (w *World) queueFor(dst int, key matchKey) int32 {
	mb := &w.mboxes[dst]
	if i := mb.queue(key); i >= 0 {
		return i
	}
	if mb.qs == nil {
		w.queuesOnce.Do(func() { w.queues = make([]msgq, queueBlock*w.n) })
		mb.qs = w.queues[dst*queueBlock : dst*queueBlock : (dst+1)*queueBlock]
	}
	mb.qs = append(mb.qs, msgq{key: key})
	n := len(mb.qs)
	switch {
	case mb.idx != nil:
		mb.idx[key] = int32(n - 1)
	case n > linearQueues:
		mb.idx = make(map[matchKey]int32, 2*n)
		for i := range mb.qs {
			mb.idx[mb.qs[i].key] = int32(i)
		}
	}
	return int32(n - 1)
}

// push appends msg to queue qi in arrival order. Caller holds mb.mu.
func (mb *mailbox) push(qi int32, msg message) {
	q := &mb.qs[qi]
	if q.held < inlineMsgs && q.spilled == 0 {
		q.in[(q.first+q.held)%inlineMsgs] = msg
		q.held++
		return
	}
	mb.over = append(mb.over, spilledMsg{qi, msg})
	q.spilled++
}

// pop removes and returns queue qi's oldest message: the ring's first,
// else the queue's first in the overflow. Caller holds mb.mu and has
// checked that the queue is non-empty.
func (mb *mailbox) pop(qi int32) message {
	q := &mb.qs[qi]
	if q.held > 0 {
		msg := q.in[q.first]
		q.in[q.first] = message{}
		q.first = (q.first + 1) % inlineMsgs
		q.held--
		return msg
	}
	i := mb.overHead
	for mb.over[i].q != qi {
		i++
	}
	msg := mb.over[i].msg
	if i == mb.overHead {
		mb.over[i] = spilledMsg{}
		mb.overHead++
	} else { // keep the other queues' messages in arrival order
		last := len(mb.over) - 1
		copy(mb.over[i:], mb.over[i+1:])
		mb.over[last] = spilledMsg{}
		mb.over = mb.over[:last]
	}
	if int(mb.overHead) == len(mb.over) {
		mb.over, mb.overHead = mb.over[:0], 0
	}
	q.spilled--
	return msg
}

// send queues msg for dst, counting it as queued unless it is
// parked on arrival. The sender is alive and not blocked for the whole
// call, so the deadlock predicate (blocked >= alive && queued == 0)
// cannot hold while a delivery is in flight, and the count is in place
// before the sender can next block.
//
// Only a receiver blocked on key is woken. Any other message is parked
// on arrival and changes neither counter half, so waking its receiver
// could not change the deadlock predicate: the last rank to block
// checks the predicate itself, and an exit that completes it wakes
// everyone.
func (w *World) send(dst int, key matchKey, msg message) {
	mb := &w.mboxes[dst]
	mb.mu.Lock()
	match := mb.waiting && mb.wkey == key
	if mb.dead || (mb.waiting && !match) {
		mb.parked++
	} else {
		w.packed.Add(1)
	}
	mb.count++
	mb.push(w.queueFor(dst, key), msg)
	if match {
		mb.cond.Signal()
	}
	mb.mu.Unlock()
}

// unblock ends the mailbox's blocked receive and returns the change to
// World.packed that goes with it: one blocked rank fewer, the parked
// messages queued again. Caller holds mb.mu.
func (mb *mailbox) unblock() int64 {
	d := int64(mb.parked) - 1<<32
	mb.waiting, mb.parked = false, 0
	return d
}

// recv blocks rank p until a message matching key is available.
//
// Counter protocol: on first finding the queue empty the receiver
// atomically enters the blocked count and parks everything its mailbox
// holds (none of it matches), publishing what it waits on under its
// mailbox lock; when a blocked receiver finally consumes a message it
// leaves the blocked count, consumes the queued count and un-parks the
// rest in ONE atomic add, so no interleaving shows "everyone blocked,
// nothing queued" while a handoff is mid-flight.
//
// Deadlock check ordering: alive is loaded BEFORE packed. alive only
// decreases, so a stale value can only make the predicate harder to
// satisfy (under-detect); every rank exit re-wakes all waiters to
// re-check, so detection is never lost — and a false positive is
// impossible without a mailbox-lock-free proof, which is why a
// positive fast-path check is re-confirmed under detectMu in
// declareDeadlock before anything is declared.
func (w *World) recv(p *Proc, key matchKey) (message, error) {
	mb := &w.mboxes[p.rank]
	blocked := false
	mb.mu.Lock()
	for {
		if qi := mb.queue(key); qi >= 0 && !mb.qs[qi].empty() {
			msg := mb.pop(qi)
			mb.count--
			if blocked {
				w.packed.Add(mb.unblock() - 1) // leave blocked, un-park, consume queued
			} else {
				w.packed.Add(-1)
			}
			mb.mu.Unlock()
			return msg, nil
		}
		if w.failed.Load() {
			if blocked {
				w.packed.Add(mb.unblock())
			}
			mb.mu.Unlock()
			return message{}, w.failure()
		}
		if !blocked {
			blocked = true
			mb.waiting = true
			mb.wkey = key
			mb.parked = mb.count
			w.packed.Add(1<<32 - int64(mb.parked))
		}
		alive := w.alive.Load()
		st := w.packed.Load()
		if st>>32 >= alive && st&queuedMask == 0 {
			// Possible deadlock. Confirm and declare outside the mailbox
			// lock; stay counted as blocked meanwhile so the predicate
			// keeps holding for the confirmation re-check.
			mb.mu.Unlock()
			err := w.declareDeadlock()
			mb.mu.Lock()
			if err != nil {
				w.packed.Add(mb.unblock())
				mb.mu.Unlock()
				return message{}, err
			}
			continue // raced with a delivery; re-scan the queue
		}
		mb.cond.Wait()
	}
}

// declareDeadlock re-confirms the deadlock predicate under detectMu
// with fresh counter loads and, if it still holds, builds the rich
// error, marks the world failed and wakes every rank. It returns nil
// when the caller's lock-free observation raced with a concurrent
// delivery, and the already-recorded failure when another rank
// declared first.
func (w *World) declareDeadlock() error {
	w.detectMu.Lock()
	defer w.detectMu.Unlock()
	if w.failed.Load() {
		return w.failErr
	}
	alive := w.alive.Load()
	st := w.packed.Load()
	if !(st>>32 >= alive && st&queuedMask == 0) {
		return nil
	}
	err := w.deadlockError(int(st>>32), int(alive))
	w.failErr = err
	w.failed.Store(true)
	w.wakeAll()
	return err
}

// deadlockError samples what the blocked ranks are waiting on.
// Called under detectMu (never with a mailbox lock held).
func (w *World) deadlockError(blocked, alive int) error {
	e := &DeadlockError{Blocked: blocked, Alive: alive}
	for r := range w.mboxes {
		if len(e.Sample) == deadlockSampleCap {
			break
		}
		mb := &w.mboxes[r]
		mb.mu.Lock()
		if mb.waiting {
			e.Sample = append(e.Sample, mb.wkey.waitOf(r))
		}
		mb.mu.Unlock()
	}
	return e
}

// failure returns the recorded failure. Only called after failed is
// observed true, and failErr is published before failed is set, so the
// detectMu round trip always finds it.
func (w *World) failure() error {
	w.detectMu.Lock()
	err := w.failErr
	w.detectMu.Unlock()
	if err == nil {
		err = ErrDeadlock
	}
	return err
}

// wakeAll broadcasts every rank's condition variable, locking
// each mailbox in turn so a waiter between its predicate check and its
// cond.Wait cannot miss the wakeup. Failure/exit paths only — never in
// steady state.
func (w *World) wakeAll() {
	for r := range w.mboxes {
		mb := &w.mboxes[r]
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

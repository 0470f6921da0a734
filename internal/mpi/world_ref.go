package mpi

// Reference runtime (run with ref set; this package's tests only): the
// pre-sharding design — one world-wide mutex guarding every mailbox,
// the payload pool and the blocked/queued/alive counters, with per-rank
// condition variables (all sharing that mutex) for targeted wakeups.
// Kept as the equivalence oracle for the sharded runtime; it is
// bit-identical in every virtual-time observable, detects the same
// deadlocks, and differs only in real-time scalability.

// waitRecord is one rank's current blocked receive (reference runtime;
// guarded by World.mu). It feeds the deadlock report's sample.
//
// queued counts only messages that can still unblock someone, by the
// sharded runtime's parking rule: of the count messages a rank holds,
// parked are left out — all once it has exited, the ones not matching
// its receive while it is blocked, none otherwise.
type waitRecord struct {
	active, exited bool
	key            matchKey
	count, parked  int
}

// refSend queues msg for dst under the world mutex.
func (w *World) refSend(dst int, key matchKey, msg *message) {
	w.mu.Lock()
	q, ok := w.boxes[dst][key]
	if !ok {
		q = &msgq{}
		w.boxes[dst][key] = q
	}
	q.push(msg)
	rw := &w.waits[dst]
	rw.count++
	if rw.exited || (rw.active && rw.key != key) {
		rw.parked++
	} else {
		w.queued++
	}
	w.conds[dst].Signal() // wake only the receiver, not the whole world
	w.mu.Unlock()
}

// refRecv blocks rank p until a message matching key is available,
// holding the world mutex across the scan/wait loop. When every live
// rank is blocked and nothing is queued, the job is deadlocked.
func (w *World) refRecv(p *Proc, key matchKey) (*message, error) {
	w.mu.Lock()
	w.blocked++
	rw := &w.waits[p.rank]
	rw.active, rw.key = true, key
	if q, ok := w.boxes[p.rank][key]; !ok || q.empty() {
		// Nothing held matches: park it all for as long as we block.
		rw.parked = rw.count
		w.queued -= rw.parked
	}
	unblock := func() {
		w.blocked--
		w.queued += rw.parked
		rw.active, rw.parked = false, 0
	}
	for {
		if q, ok := w.boxes[p.rank][key]; ok && !q.empty() {
			msg := q.pop()
			rw.count--
			w.queued--
			unblock()
			w.mu.Unlock()
			return msg, nil
		}
		if w.failed || (w.blocked >= w.alive && w.queued == 0) {
			if !w.failed {
				w.failed = true
				w.failErr = w.refDeadlockError()
			}
			err := w.failErr
			if err == nil {
				err = ErrDeadlock
			}
			unblock()
			w.wakeAll()
			w.mu.Unlock()
			return nil, err
		}
		w.conds[p.rank].Wait()
	}
}

// refDeadlockError samples what the blocked ranks are waiting on.
// Called with w.mu held, by the rank that first detects the deadlock
// (which is still counted in w.blocked and still has an active wait
// record at this point).
func (w *World) refDeadlockError() error {
	e := &DeadlockError{Blocked: w.blocked, Alive: w.alive}
	for r := range w.waits {
		if len(e.Sample) == deadlockSampleCap {
			break
		}
		rw := &w.waits[r]
		if rw.active {
			e.Sample = append(e.Sample, rw.key.waitOf(r))
		}
	}
	return e
}

// wakeAll signals every rank's condition variable. Called with mu held,
// and only on failure/deadlock paths — never in steady state.
func (w *World) wakeAll() {
	for _, c := range w.conds {
		c.Broadcast()
	}
}

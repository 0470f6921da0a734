// Package mpi is a message-passing runtime for functional simulation:
// each rank is a goroutine with a virtual clock, and MPI-style
// operations (Send/Recv, nonblocking requests, barriers, reductions,
// communicator splits) advance the clocks according to a pluggable
// transfer-time model. Time spent blocked in Recv/Wait is accounted as
// MPI_Wait time, mirroring the profiling the paper reports in
// Section 4.3.2.
//
// Virtual time is deterministic: a message's arrival time depends only
// on the sender's clock and the time model, never on goroutine
// scheduling.
//
// The runtime is sharded for scale (DESIGN.md Section 13): each rank
// owns a private mailbox (lock + condition variable), the
// blocked/queued/alive bookkeeping is atomic, and payloads recycle
// through an unlocked per-rank cache over one locked free list per size
// class, so worlds of 10k+ virtual ranks run without funneling every
// operation through one mutex. The previous single-mutex runtime
// (world_ref.go) is reachable only through the unexported run, as the
// oracle this package's tests hold the sharded one to: it produces
// bit-identical virtual clocks, wait times and results.
package mpi

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TimeModel computes virtual transfer durations between global ranks.
type TimeModel interface {
	// Transfer returns the virtual seconds for a message of the given
	// size from src to dst (both global ranks).
	Transfer(src, dst int, bytes int) float64
}

// AlphaBeta is the classic latency/bandwidth time model:
// alpha + bytes*beta.
type AlphaBeta struct {
	Alpha float64 // per-message latency, s
	Beta  float64 // per-byte cost, s/byte
}

// Transfer implements TimeModel.
func (m AlphaBeta) Transfer(_, _ int, bytes int) float64 {
	return m.Alpha + float64(bytes)*m.Beta
}

// message is an in-flight message.
type message struct {
	src     int // global sender rank
	tag     int
	comm    int // communicator id
	data    []float64
	arrival float64 // virtual arrival time
}

// msgPool recycles message headers between Send and Recv. Payload
// slices are pooled separately and explicitly: a receiver that is done
// with a payload hands it back with Comm.FreePayload, and senders draw
// scratch from Comm.AllocPayload, so steady-state traffic recycles a
// fixed set of buffers instead of allocating per message.
var msgPool = sync.Pool{New: func() any { return new(message) }}

// matchKey identifies a receive queue: global sender rank,
// communicator id and tag (16 bytes, so a mailbox's scan compares two
// words per queue).
type matchKey struct {
	src, comm int32
	tag       int
}

// waitOf describes rank blocked in a receive on k, for a deadlock
// report.
func (k matchKey) waitOf(rank int) RankWait {
	return RankWait{Rank: rank, Src: int(k.src), Tag: k.tag, Comm: int(k.comm)}
}

// msgq is one (src, tag, comm) receive queue. Queues are created on
// first use and then live for the world's lifetime. A queue holds its
// head message inline: eager sends are usually received before the next
// one arrives, so most queues never hold two messages and never
// allocate; a queue that does back up spills into q, whose backing
// array is reused, so steady-state delivery never allocates either.
type msgq struct {
	key  matchKey // set by the sharded runtime's mailbox, which scans for it
	one  *message // the oldest queued message, set only while q is drained
	q    []*message
	head int
}

// empty reports whether no message is queued.
func (q *msgq) empty() bool { return q.one == nil && q.head == len(q.q) }

// push appends msg in arrival order.
func (q *msgq) push(msg *message) {
	if q.empty() {
		q.one = msg
		return
	}
	q.q = append(q.q, msg)
}

// pop removes and returns the queue's head message. The caller must
// have checked that the queue is non-empty.
func (q *msgq) pop() *message {
	if msg := q.one; msg != nil {
		q.one = nil
		return msg
	}
	msg := q.q[q.head]
	q.q[q.head] = nil
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	}
	return msg
}

// World is one simulated job: n ranks plus shared mailboxes.
//
// In the sharded runtime each rank owns a mailbox with its own lock
// and condition variable: senders lock exactly the destination rank's
// mailbox and a delivery wakes exactly the receiving rank, so traffic
// between disjoint rank pairs never contends. Deadlock bookkeeping
// (blocked/queued/alive) is atomic, checked lock-free on the blocking
// path and confirmed under a small detector mutex before declaring.
//
// The reference runtime (run with ref set; tests only) keeps the
// original design: one world-wide mutex guarding per-rank queues,
// per-rank condition variables all sharing that mutex, and plain
// counters. It is bit-identical to the sharded runtime in every
// virtual-time observable (clocks, wait times, per-phase stats,
// results); only real-time scalability differs.
type World struct {
	n   int
	tm  TimeModel
	ref bool // single-mutex oracle runtime (world_ref.go)

	// commSeq allocates world-unique communicator ids (world is 0).
	commSeq atomic.Int64
	// splitRanks caches the canonical global-rank list of every
	// communicator created by Split, keyed by comm id. The split root
	// registers each group's list once; every member aliases it
	// read-only, so a split is O(n) total instead of O(n) per rank.
	splitRanks sync.Map
	// drops counts freed payloads too large for any pool size class.
	drops atomic.Uint64

	// --- sharded runtime state ---

	mboxes []mailbox
	// classes are the per-size-class overflow pools; localHits and
	// localFrees accumulate exited ranks' private-cache counters.
	classes               [payloadClasses]classPool
	localHits, localFrees atomic.Uint64
	// packed holds blocked<<32 | queued in one atomic word so the
	// deadlock predicate reads a consistent snapshot of both counters.
	// blocked counts ranks currently waiting in Recv; queued counts
	// undelivered messages (incremented before a message becomes
	// visible, decremented atomically with the receiver's unblock).
	packed   atomic.Int64
	aliveS   atomic.Int64
	failedS  atomic.Bool
	detectMu sync.Mutex // serializes deadlock confirmation
	failErrS error      // under detectMu; read only after failedS is set

	// --- reference runtime state ---

	mu      sync.Mutex
	conds   []*sync.Cond // per-rank wakeups, all sharing mu
	boxes   []map[matchKey]*msgq
	pool    freeLists // single payload pool, guarded by mu
	waits   []waitRecord
	blocked int
	queued  int
	alive   int
	failed  bool
	failErr error
}

// Run executes fn on n ranks and blocks until all complete. It returns
// the lowest-ranked error that is not a deadlock report if any rank
// produced one, else the deadlock error if the world deadlocked. The
// returned procs expose final clocks and wait times, indexed by rank.
//
// Setup allocates a fixed number of slabs (Procs, world communicators,
// mailboxes, payload caches, one shared read-only rank list) plus one
// goroutine and its closure per rank: no per-rank map, queue or
// communicator object exists until a rank's first message or phase.
func Run(n int, tm TimeModel, fn func(p *Proc) error) ([]*Proc, error) {
	return run(n, tm, fn, false)
}

// run is Run on the sharded runtime, or, with ref set, on the
// single-mutex oracle runtime of world_ref.go.
func run(n int, tm TimeModel, fn func(p *Proc) error, ref bool) ([]*Proc, error) {
	if n <= 0 {
		return nil, errBadRanks(n)
	}
	w := &World{n: n, tm: tm, ref: ref}
	w.commSeq.Store(1)
	worldRanks := make([]int, n)
	for i := range worldRanks {
		worldRanks[i] = i
	}
	if w.ref {
		w.alive = n
		w.conds = make([]*sync.Cond, n)
		w.boxes = make([]map[matchKey]*msgq, n)
		w.waits = make([]waitRecord, n)
		for i := range w.boxes {
			w.conds[i] = sync.NewCond(&w.mu)
			w.boxes[i] = make(map[matchKey]*msgq)
		}
	} else {
		w.aliveS.Store(int64(n))
		w.mboxes = make([]mailbox, n)
		for i := range w.mboxes {
			mb := &w.mboxes[i]
			mb.cond.L = &mb.mu
		}
	}
	// Per-rank state comes from slabs, so a world costs a constant
	// number of heap objects plus one goroutine (and its closure) per rank.
	procSlab := make([]Proc, n)
	comms := make([]Comm, n)
	caches := make([]rankCache, n) // sharded runtime per-rank payload caches
	procs := make([]*Proc, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		p := &procSlab[r]
		p.w, p.rank = w, r
		if !w.ref {
			p.pcache = &caches[r]
		}
		comms[r] = Comm{w: w, id: 0, ranks: worldRanks, me: r, proc: p}
		p.world = &comms[r]
		procs[r] = p
		go func() {
			defer wg.Done()
			defer w.rankExit(p)
			errs[r] = fn(p)
		}()
	}
	wg.Wait()
	// A rank that fails leaves its peers blocked on it, and they then
	// report a deadlock: the root cause wins over that symptom, whichever
	// rank index each landed on.
	var deadlock error
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, ErrDeadlock):
			return procs, err
		case deadlock == nil:
			deadlock = err
		}
	}
	return procs, deadlock
}

// rankExit records one rank's completion. A rank's exit can complete
// the deadlock condition for the remaining blocked ranks; wake them so
// they re-check. In a clean run nothing is blocked here and no one is
// woken.
func (w *World) rankExit(p *Proc) {
	if w.ref {
		w.mu.Lock()
		w.alive--
		rw := &w.waits[p.rank]
		rw.exited = true
		w.queued -= rw.count // undeliverable now
		rw.parked = rw.count
		if w.failed || (w.blocked >= w.alive && w.queued == 0) {
			w.wakeAll()
		}
		w.mu.Unlock()
		return
	}
	w.foldRankCache(p.pcache)
	// Whatever the rank left unreceived can unblock no one.
	mb := &w.mboxes[p.rank]
	mb.mu.Lock()
	mb.dead = true
	mb.parked = mb.count
	undeliverable := int64(mb.count)
	mb.mu.Unlock()
	w.packed.Add(-undeliverable)
	alive := w.aliveS.Add(-1)
	st := w.packed.Load()
	if w.failedS.Load() || (st>>32 >= alive && st&queuedMask == 0) {
		w.wakeAllSharded()
	}
}

// PhaseStats aggregates one rank's virtual-time activity within one
// named phase: where the time went (compute vs. blocked wait vs.
// message transfer) and how much traffic the rank generated.
type PhaseStats struct {
	// Compute is virtual time advanced by Compute calls.
	Compute float64
	// Wait is virtual time spent blocked in Recv/Wait past the rank's
	// own clock — the MPI_Wait time of the paper's measurements.
	Wait float64
	// Transfer is the summed modeled transfer duration of the messages
	// this rank sent (network occupancy attributed to the sender).
	Transfer float64
	// SendCount/RecvCount and SendBytes/RecvBytes count the rank's
	// messages and payload bytes, including collective-internal traffic.
	SendCount, RecvCount int
	SendBytes, RecvBytes int
	// Wall is real (wall-clock) time the rank spent inside the phase,
	// accrued at BeginPhase transitions (and finalized by Phases), in
	// seconds. Unlike the virtual-time fields above it measures the
	// simulator itself, so phase-level trace spans and reports can show
	// where real execution time goes.
	Wall float64
}

// add accumulates o into s.
func (s *PhaseStats) add(o PhaseStats) {
	s.Compute += o.Compute
	s.Wait += o.Wait
	s.Transfer += o.Transfer
	s.SendCount += o.SendCount
	s.RecvCount += o.RecvCount
	s.SendBytes += o.SendBytes
	s.RecvBytes += o.RecvBytes
	s.Wall += o.Wall
}

// Phase is one named phase of one rank with its accumulated stats.
type Phase struct {
	Name  string
	Stats PhaseStats
}

// Proc is the per-rank handle passed to the rank function.
type Proc struct {
	w     *World
	rank  int // global rank
	clock float64
	wait  float64
	world *Comm

	// Phase instrumentation: nil until the first BeginPhase, so
	// uninstrumented runs pay only a nil check per operation.
	cur    *PhaseStats
	curAt  time.Time // wall-clock entry into the current phase
	phases []Phase

	// pcache is the rank's private payload cache (sharded runtime
	// only; nil on the reference runtime). See pool.go.
	pcache *rankCache
}

// Comm is a communicator: an ordered group of global ranks. Local rank
// i of the communicator is ranks[i]. The ranks slice is shared
// read-only: every member of a communicator aliases one canonical
// list.
type Comm struct {
	w     *World
	id    int
	ranks []int
	me    int // local rank of the owning Proc
	proc  *Proc
}

// Rank returns the global rank of p.
func (p *Proc) Rank() int { return p.rank }

// World returns the world communicator (MPI_COMM_WORLD).
func (p *Proc) World() *Comm { return p.world }

// Clock returns the rank's current virtual time.
func (p *Proc) Clock() float64 { return p.clock }

// WaitTime returns the accumulated virtual time spent blocked in
// Recv/Wait — the MPI_Wait time of the paper's measurements.
func (p *Proc) WaitTime() float64 { return p.wait }

// PoolStats returns the world's payload-pool counters (see
// World.PoolStats).
func (p *Proc) PoolStats() PoolStats { return p.w.PoolStats() }

// BeginPhase opens (or re-opens) the named per-rank accounting phase:
// subsequent Compute, Send and Recv activity on this rank accrues to
// it until the next BeginPhase. Re-opening a name continues its
// accumulation. Phases are purely observational — they never advance
// virtual time.
func (p *Proc) BeginPhase(name string) {
	now := time.Now()
	if p.cur != nil {
		p.cur.Wall += now.Sub(p.curAt).Seconds()
	}
	// A rank has a handful of phases, so a scan is cheaper than a
	// per-rank map and leaves the GC nothing extra to trace.
	i := 0
	for i < len(p.phases) && p.phases[i].Name != name {
		i++
	}
	if i == len(p.phases) {
		if p.phases == nil {
			p.phases = make([]Phase, 0, 8)
		}
		p.phases = append(p.phases, Phase{Name: name})
	}
	p.cur = &p.phases[i].Stats
	p.curAt = now
}

// Phases returns a copy of the rank's per-phase breakdown in
// first-BeginPhase order, finalizing the open phase's wall-clock
// accrual. Call it only after Run returns (or from the rank's own
// goroutine).
func (p *Proc) Phases() []Phase {
	if p.cur != nil {
		now := time.Now()
		p.cur.Wall += now.Sub(p.curAt).Seconds()
		p.curAt = now
	}
	return append([]Phase(nil), p.phases...)
}

// PhaseTotal aggregates one phase across ranks.
type PhaseTotal struct {
	Name string
	// Ranks is the number of ranks that entered the phase.
	Ranks int
	// Sum totals the per-rank stats.
	Sum PhaseStats
	// MaxWait is the worst single rank's wait time in the phase.
	MaxWait float64
}

// AggregatePhases merges the per-rank phase breakdowns of a finished
// run into per-phase totals, ordered by first appearance across ranks.
func AggregatePhases(procs []*Proc) []PhaseTotal {
	var out []PhaseTotal
	idx := map[string]int{}
	for _, p := range procs {
		for _, ph := range p.phases {
			i, ok := idx[ph.Name]
			if !ok {
				i = len(out)
				idx[ph.Name] = i
				out = append(out, PhaseTotal{Name: ph.Name})
			}
			out[i].Ranks++
			out[i].Sum.add(ph.Stats)
			if ph.Stats.Wait > out[i].MaxWait {
				out[i].MaxWait = ph.Stats.Wait
			}
		}
	}
	return out
}

// Compute advances the rank's virtual clock by the given duration.
func (p *Proc) Compute(seconds float64) {
	if seconds > 0 {
		p.clock += seconds
		if p.cur != nil {
			p.cur.Compute += seconds
		}
	}
}

// Rank returns the caller's local rank in c.
func (c *Comm) Rank() int { return c.me }

// Size returns the number of ranks in c.
func (c *Comm) Size() int { return len(c.ranks) }

// Global returns the global rank of local rank r in c.
func (c *Comm) Global(r int) int { return c.ranks[r] }

// Send delivers data to local rank `to` of the communicator with the
// given tag. Sends are eager (buffered): the sender does not block; its
// clock advances by the local share of the transfer. The payload is
// copied (into a pooled buffer), so the caller keeps ownership of data.
func (c *Comm) Send(to, tag int, data []float64) {
	buf := c.w.allocPayload(c.proc, len(data))
	copy(buf, data)
	c.SendOwned(to, tag, buf)
}

// SendOwned is Send without the defensive payload copy: ownership of
// data passes to the runtime and then to the receiver, which gets the
// very same slice from Recv. Use it with buffers from AllocPayload (and
// FreePayload on the receive side) to make steady-state traffic
// allocation-free; after the call the sender must not touch data again.
func (c *Comm) SendOwned(to, tag int, data []float64) {
	p := c.proc
	dst := c.ranks[to]
	bytes := 8 * len(data)
	t := c.w.tm.Transfer(p.rank, dst, bytes)
	msg := msgPool.Get().(*message)
	msg.src = p.rank
	msg.tag = tag
	msg.comm = c.id
	msg.data = data
	msg.arrival = p.clock + t
	if p.cur != nil {
		p.cur.Transfer += t
		p.cur.SendCount++
		p.cur.SendBytes += bytes
	}
	key := matchKey{src: int32(p.rank), comm: int32(c.id), tag: tag}
	if c.w.ref {
		c.w.refSend(dst, key, msg)
	} else {
		c.w.shardSend(dst, key, msg)
	}
}

// AllocPayload returns a length-n scratch slice from the world's
// payload pool, for building a message passed to SendOwned. Contents
// are unspecified.
func (c *Comm) AllocPayload(n int) []float64 { return c.w.allocPayload(c.proc, n) }

// FreePayload recycles a payload (typically one returned by Recv) into
// the world pool. The caller must be done with it, and must not free
// the same slice twice.
func (c *Comm) FreePayload(b []float64) { c.w.freePayload(c.proc, b) }

// Recv blocks until a message with the given source (local rank) and
// tag arrives, advances the virtual clock to the arrival time, and
// accounts blocked time as wait time.
func (c *Comm) Recv(from, tag int) ([]float64, error) {
	p := c.proc
	key := matchKey{src: int32(c.ranks[from]), comm: int32(c.id), tag: tag}
	var msg *message
	var err error
	if c.w.ref {
		msg, err = c.w.refRecv(p, key)
	} else {
		msg, err = c.w.shardRecv(p, key)
	}
	if err != nil {
		return nil, err
	}
	data, arrival := msg.data, msg.arrival
	msg.data = nil // payload ownership passes to the receiver
	msgPool.Put(msg)
	if arrival > p.clock {
		if p.cur != nil {
			p.cur.Wait += arrival - p.clock
		}
		p.wait += arrival - p.clock
		p.clock = arrival
	}
	if p.cur != nil {
		p.cur.RecvCount++
		p.cur.RecvBytes += 8 * len(data)
	}
	return data, nil
}

// Request is a handle for a nonblocking operation.
type Request struct {
	comm *Comm
	recv bool
	from int
	tag  int
	done bool
	data []float64
	err  error
}

// Isend starts a nonblocking send. In the eager model the send
// completes immediately.
func (c *Comm) Isend(to, tag int, data []float64) *Request {
	c.Send(to, tag, data)
	return &Request{comm: c, done: true}
}

// Irecv posts a nonblocking receive; the matching happens in Wait.
func (c *Comm) Irecv(from, tag int) *Request {
	return &Request{comm: c, recv: true, from: from, tag: tag}
}

// Wait completes the request, returning received data for receives.
func (r *Request) Wait() ([]float64, error) {
	if r.done {
		return r.data, r.err
	}
	r.done = true
	if r.recv {
		r.data, r.err = r.comm.Recv(r.from, r.tag)
	}
	return r.data, r.err
}

// WaitAll completes all requests, returning the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Internal collective tags (user tags must be >= 0).
const (
	tagBarrier = -1
	tagReduce  = -2
	tagSplit   = -4
	tagGather  = -5
)

// Barrier synchronizes the communicator: all clocks advance to the
// latest participant (plus transfer costs of the gather/release tree).
// Barrier messages carry no data, so every payload cycles through the
// world pool and a steady-state Barrier performs no allocations.
func (c *Comm) Barrier() error {
	if c.me == 0 {
		for r := 1; r < c.Size(); r++ {
			d, err := c.Recv(r, tagBarrier)
			if err != nil {
				return err
			}
			c.FreePayload(d)
		}
		for r := 1; r < c.Size(); r++ {
			c.SendOwned(r, tagBarrier, c.AllocPayload(0))
		}
		return nil
	}
	c.SendOwned(0, tagBarrier, c.AllocPayload(0))
	d, err := c.Recv(0, tagBarrier)
	if err != nil {
		return err
	}
	c.FreePayload(d)
	return nil
}

// gatherScatter funnels per-rank payloads to local root 0, applies
// combine (if non-nil), and scatters the result back. It is the
// backbone of the value collectives. Received payloads are recycled
// into the world pool after combining (the root's own payload at
// index 0 stays caller-owned).
func (c *Comm) gatherScatter(tag int, payload []float64, combine func([][]float64) []float64) ([]float64, error) {
	if c.me == 0 {
		all := make([][]float64, c.Size())
		all[0] = payload
		for r := 1; r < c.Size(); r++ {
			d, err := c.Recv(r, tag)
			if err != nil {
				return nil, err
			}
			all[r] = d
		}
		var res []float64
		if combine != nil {
			res = combine(all)
		}
		for r := 1; r < c.Size(); r++ {
			c.FreePayload(all[r])
		}
		for r := 1; r < c.Size(); r++ {
			c.Send(r, tag, res)
		}
		return res, nil
	}
	c.Send(0, tag, payload)
	return c.Recv(0, tag)
}

// Op is a reduction operator.
type Op func(a, b float64) float64

// OpSum is the sum reduction.
var OpSum Op = func(a, b float64) float64 { return a + b }

// Allreduce combines vals element-wise across the communicator with op
// and returns the result on every rank.
func (c *Comm) Allreduce(op Op, vals []float64) ([]float64, error) {
	return c.gatherScatter(tagReduce, vals, func(all [][]float64) []float64 {
		res := append([]float64(nil), all[0]...)
		for _, v := range all[1:] {
			for i := range res {
				res[i] = op(res[i], v[i])
			}
		}
		return res
	})
}

// Gather collects every rank's payload at root (local rank 0 receives
// a per-rank slice-of-slices; others receive nil). Ownership of payload
// passes to the collective: the root may FreePayload each returned
// slice once done, completing the pool round trip.
func (c *Comm) Gather(payload []float64) ([][]float64, error) {
	if c.me == 0 {
		all := make([][]float64, c.Size())
		all[0] = payload
		for r := 1; r < c.Size(); r++ {
			d, err := c.Recv(r, tagGather)
			if err != nil {
				return nil, err
			}
			all[r] = d
		}
		return all, nil
	}
	c.SendOwned(0, tagGather, payload)
	return nil, nil
}

// Split partitions the communicator by color, ordering members by
// (key, current local rank), like MPI_Comm_split. Every rank must call
// it. Ranks passing a negative color receive nil (MPI_UNDEFINED).
//
// The exchange is O(n) total: members send their (color, key) to the
// local root, which computes the groups, registers each group's
// canonical global-rank list in the world's split cache exactly once,
// and answers every member with a fixed-size (id, local rank)
// assignment. Members alias the canonical list — no per-rank copies of
// the membership table, which previously made a world-wide split
// O(n²) in both payload bytes and memory.
func (c *Comm) Split(color, key int) (*Comm, error) {
	w := c.w
	if c.me != 0 {
		req := c.AllocPayload(2)
		req[0], req[1] = float64(color), float64(key)
		c.SendOwned(0, tagSplit, req)
		res, err := c.Recv(0, tagSplit)
		if err != nil {
			return nil, err
		}
		id, me := int(res[0]), int(res[1])
		c.FreePayload(res)
		if id < 0 {
			return nil, nil
		}
		ranks, ok := w.splitRanks.Load(id)
		if !ok {
			// Unreachable: the root registers every group before
			// answering any member.
			return nil, errSplitCache(id)
		}
		return &Comm{w: w, id: id, ranks: ranks.([]int), me: me, proc: c.proc}, nil
	}

	// Root: gather (color, key) in local-rank order.
	type member struct{ rank, color, key int }
	ms := make([]member, c.Size())
	ms[0] = member{0, color, key}
	for r := 1; r < c.Size(); r++ {
		d, err := c.Recv(r, tagSplit)
		if err != nil {
			return nil, err
		}
		ms[r] = member{rank: r, color: int(d[0]), key: int(d[1])}
		c.FreePayload(d)
	}
	colors := map[int][]member{}
	var order []int
	for _, m := range ms {
		if m.color >= 0 {
			if _, ok := colors[m.color]; !ok {
				order = append(order, m.color)
			}
			colors[m.color] = append(colors[m.color], m)
		}
	}
	sort.Ints(order)
	// Allocate world-unique communicator ids for the groups, assigned
	// deterministically by ascending color.
	firstID := int(w.commSeq.Add(int64(len(order)))) - len(order)
	type assign struct{ id, me int }
	asg := make([]assign, c.Size())
	for i := range asg {
		asg[i] = assign{id: -1}
	}
	for gi, col := range order {
		members := colors[col]
		sort.Slice(members, func(a, b int) bool {
			if members[a].key != members[b].key {
				return members[a].key < members[b].key
			}
			return members[a].rank < members[b].rank
		})
		id := firstID + gi
		globals := make([]int, len(members))
		for i, m := range members {
			globals[i] = c.ranks[m.rank]
			asg[m.rank] = assign{id: id, me: i}
		}
		w.splitRanks.Store(id, globals)
	}
	for r := 1; r < c.Size(); r++ {
		res := c.AllocPayload(2)
		res[0], res[1] = float64(asg[r].id), float64(asg[r].me)
		c.SendOwned(r, tagSplit, res)
	}
	a := asg[0]
	if a.id < 0 {
		return nil, nil
	}
	ranks, _ := w.splitRanks.Load(a.id)
	return &Comm{w: w, id: a.id, ranks: ranks.([]int), me: a.me, proc: c.proc}, nil
}

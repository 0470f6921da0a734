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
// blocked/queued/alive bookkeeping is atomic, payloads recycle through
// one locked free list per size class shared by every rank, and
// Barrier, Allreduce and Split meet in their communicator's shared
// slots, so worlds of 10k+ virtual ranks run without funneling every
// operation through one mutex or one mailbox.
//
// Per-rank state lives in slabs that its owner holds, never in objects
// of its own: Run's slabs hold the Procs with their phase tables, the
// mailboxes and the world communicators; the world's queue slab, made
// on its first message, holds every mailbox's first queues; a split
// communicator's group holds its members' handles. A queue keeps two
// messages inline and spills into its mailbox's reused overflow, so
// steady-state delivery allocates nothing. This package's tests pin
// its virtual clocks, wait times and phase stats to literals recorded
// on the single-mutex runtime it replaced.
package mpi

import (
	"errors"
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

// message is an in-flight message. Its queue's key already names the
// sender, communicator and tag, so a message is its payload and its
// virtual arrival time, held by value in the queue.
type message struct {
	data    []float64
	arrival float64
}

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

// World is one simulated job: n ranks plus their mailboxes.
//
// Each rank owns a mailbox with its own lock and condition variable:
// senders lock exactly the destination rank's mailbox and a delivery
// wakes exactly the receiving rank, so traffic between disjoint rank
// pairs never contends. Deadlock bookkeeping (blocked/queued/alive) is
// atomic, checked lock-free on the blocking path and confirmed under a
// small detector mutex before declaring.
type World struct {
	n  int
	tm TimeModel

	// commSeq allocates world-unique communicator ids (world is 0).
	commSeq atomic.Int64
	// drops counts freed payloads too large for any pool size class.
	drops atomic.Uint64

	mboxes []mailbox
	// queues holds every mailbox's first queueBlock queues, carved by
	// rank index. It is made on the world's first message, so a world
	// that sends nothing never pays for it and an idle rank's mailbox
	// stays empty.
	queuesOnce sync.Once
	queues     []msgq
	// classes are the payload pool's per-size-class free lists.
	classes [payloadClasses]classPool
	// packed holds blocked<<32 | queued in one atomic word so the
	// deadlock predicate reads a consistent snapshot of both counters.
	// blocked counts ranks currently waiting in Recv; queued counts
	// undelivered messages (incremented before a message becomes
	// visible, decremented atomically with the receiver's unblock).
	packed   atomic.Int64
	alive    atomic.Int64
	failed   atomic.Bool
	detectMu sync.Mutex // serializes deadlock confirmation
	failErr  error      // under detectMu; read only after failed is set
}

// Run executes fn on n ranks and blocks until all complete. It returns
// the lowest-ranked error that is not a deadlock report if any rank
// produced one, else the deadlock error if the world deadlocked. The
// returned procs expose final clocks and wait times, indexed by rank.
//
// Setup allocates a fixed number of slabs (Procs with their phase
// tables, mailboxes, the world group's rank list, slots and
// communicators) plus one goroutine and its closure per rank. Per-rank
// state made later also comes from slabs its owner holds: a mailbox's
// first queues from the world's queue slab, a split communicator from
// its group's, so no per-rank map, queue or communicator object is
// ever made on its own.
func Run(n int, tm TimeModel, fn func(p *Proc) error) ([]*Proc, error) {
	if n <= 0 {
		return nil, errBadRanks(n)
	}
	w := &World{n: n, tm: tm}
	w.commSeq.Store(1)
	worldRanks := make([]int, n)
	for i := range worldRanks {
		worldRanks[i] = i
	}
	worldGroup := newGroup(w, 0, worldRanks)
	w.alive.Store(int64(n))
	w.mboxes = make([]mailbox, n)
	for i := range w.mboxes {
		mb := &w.mboxes[i]
		mb.cond.L = &mb.mu
	}
	// Per-rank state comes from slabs, so a world costs a constant
	// number of heap objects plus one goroutine (and its closure) per rank.
	procSlab := make([]Proc, n)
	procs := make([]*Proc, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		p := &procSlab[r]
		p.w, p.rank = w, r
		p.world = &worldGroup.comms[r]
		p.world.proc = p
		procs[r] = p
		go func() {
			defer wg.Done()
			defer w.rankExit(p)
			errs[r] = fn(p)
			if p.cur != nil { // close the last phase: Phases after Run only copies
				p.cur.Wall += time.Since(p.curAt).Seconds()
			}
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
	// Whatever the rank left unreceived can unblock no one.
	mb := &w.mboxes[p.rank]
	mb.mu.Lock()
	mb.dead = true
	mb.parked = mb.count
	undeliverable := int64(mb.count)
	mb.mu.Unlock()
	w.packed.Add(-undeliverable)
	alive := w.alive.Add(-1)
	st := w.packed.Load()
	if w.failed.Load() || (st>>32 >= alive && st&queuedMask == 0) {
		w.wakeAll()
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
	// accrued at BeginPhase transitions and when the rank's function
	// returns, in seconds. Unlike the virtual-time fields above it
	// measures the simulator itself, so phase-level trace spans and
	// reports can show where real execution time goes.
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
	// uninstrumented runs pay only a nil check per operation. The
	// table starts in phaseBuf, inside the world's Proc slab.
	cur      *PhaseStats
	curAt    time.Time // wall-clock entry into the current phase
	phases   []Phase
	phaseBuf [phaseBlock]Phase
}

// phaseBlock is how many phases a rank records before its table
// leaves the Proc slab: wrfsim's concurrent ranks open five.
const phaseBlock = 8

// Comm is one rank's handle on a communicator: an ordered group of
// global ranks, local rank i being g.ranks[i]. Every member shares the
// one group (see collective.go).
type Comm struct {
	w    *World
	g    *group
	me   int // local rank of the owning Proc
	proc *Proc
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
			p.phases = p.phaseBuf[:0]
		}
		p.phases = append(p.phases, Phase{Name: name})
	}
	p.cur = &p.phases[i].Stats
	p.curAt = now
}

// Phases returns a copy of the rank's per-phase breakdown in
// first-BeginPhase order. Call it only after Run returns, when every
// phase is closed (from the rank's own goroutine the open phase lacks
// the wall time since its BeginPhase).
func (p *Proc) Phases() []Phase {
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
func (c *Comm) Size() int { return len(c.g.ranks) }

// Global returns the global rank of local rank r in c.
func (c *Comm) Global(r int) int { return c.g.ranks[r] }

// Send delivers data to local rank `to` of the communicator with the
// given tag. Sends are eager (buffered): the sender does not block; its
// clock advances by the local share of the transfer. The payload is
// copied (into a pooled buffer), so the caller keeps ownership of data.
func (c *Comm) Send(to, tag int, data []float64) {
	buf := c.w.allocPayload(len(data))
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
	dst := c.g.ranks[to]
	bytes := 8 * len(data)
	t := c.w.tm.Transfer(p.rank, dst, bytes)
	arrival := p.clock + t
	p.sent(t, bytes)
	c.w.send(dst, matchKey{src: int32(p.rank), comm: int32(c.g.id), tag: tag}, message{data, arrival})
}

// sent accounts a send of the given transfer time and payload bytes to
// the open phase.
func (p *Proc) sent(t float64, bytes int) {
	if p.cur != nil {
		p.cur.Transfer += t
		p.cur.SendCount++
		p.cur.SendBytes += bytes
	}
}

// received advances the clock to a received message's arrival,
// accounting the blocked time as wait, and counts the receive of bytes
// in the open phase.
func (p *Proc) received(arrival float64, bytes int) {
	if arrival > p.clock {
		if p.cur != nil {
			p.cur.Wait += arrival - p.clock
		}
		p.wait += arrival - p.clock
		p.clock = arrival
	}
	if p.cur != nil {
		p.cur.RecvCount++
		p.cur.RecvBytes += bytes
	}
}

// AllocPayload returns a length-n scratch slice from the world's
// payload pool, for building a message passed to SendOwned. Contents
// are unspecified.
func (c *Comm) AllocPayload(n int) []float64 { return c.w.allocPayload(n) }

// FreePayload recycles a payload (typically one returned by Recv) into
// the world pool. The caller must be done with it, and must not free
// the same slice twice.
func (c *Comm) FreePayload(b []float64) { c.w.freePayload(b) }

// Recv blocks until a message with the given source (local rank) and
// tag arrives, advances the virtual clock to the arrival time, and
// accounts blocked time as wait time.
func (c *Comm) Recv(from, tag int) ([]float64, error) {
	msg, err := c.w.recv(c.proc, matchKey{src: int32(c.g.ranks[from]), comm: int32(c.g.id), tag: tag})
	if err != nil {
		return nil, err
	}
	c.proc.received(msg.arrival, 8*len(msg.data))
	return msg.data, nil
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

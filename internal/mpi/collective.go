package mpi

import (
	"sort"
	"sync/atomic"
)

// Internal collective tags (user tags must be >= 0).
const (
	tagBarrier = -1
	tagReduce  = -2
	tagSplit   = -4
	tagGather  = -5
)

// group is what every member of a communicator shares: its id, the
// canonical global-rank list (local rank i is ranks[i]) and the
// rendezvous its two-way collectives meet in.
//
// Barrier, Allreduce and Split are each a funnel through local rank 0
// and back, and keep that funnel's virtual time exactly. Their wall
// cost is not a funnel's: a member accounts the send it would have
// made, writes its arrival time and contribution into its slot and
// counts itself in; the last to arrive wakes the root with one
// uncounted header-only message. The root replays the receives in
// local-rank order, computes the result, and releases each member with
// a header-only message carrying the funnel's arrival time. Wake and
// release are mailbox messages, so the deadlock detector sees a
// collective's waits like any other receive.
//
// One rendezvous serves every collective in turn: the root reads every
// slot before its first release, and a member writes its slot again
// only after its own release, so no member can overtake the root.
// Gather stays on messages for that reason: its members do not wait
// for the root, so a member's next collective could overwrite a slot
// the root has not read.
type group struct {
	id      int
	ranks   []int
	slots   []slot       // one per local rank
	comms   []Comm       // local rank i's handle, its proc set when it joins
	arrived atomic.Int32 // members in the open collective, reset by the root
	res     []float64    // Allreduce: the root's copy of the result
}

// slot is one local rank's place in its group's rendezvous.
type slot struct {
	arrival float64   // the virtual arrival of the member's send to the root
	bytes   int       // the payload bytes of that send
	vals    []float64 // Allreduce: the member's operand
	color   int       // Split: the member's request
	key     int
	sub     *Comm // Split: the member's handle on its new group, nil for a negative color
}

// newGroup makes the group of communicator id over ranks, with every
// member's handle in one slab.
func newGroup(w *World, id int, ranks []int) *group {
	g := &group{id: id, ranks: ranks, slots: make([]slot, len(ranks)), comms: make([]Comm, len(ranks))}
	for i := range g.comms {
		g.comms[i] = Comm{w: w, g: g, me: i}
	}
	return g
}

// arrive is a member's (local rank > 0) half of a collective: it
// accounts the send of bytes to the root, publishes its arrival, wakes
// the root if it is the last to arrive, and waits for its release. It
// returns the release's arrival time, which the caller passes to
// received with the bytes of the answer.
func (c *Comm) arrive(tag, bytes int) (float64, error) {
	p, g := c.proc, c.g
	root := g.ranks[0]
	t := c.w.tm.Transfer(p.rank, root, bytes)
	s := &g.slots[c.me]
	s.arrival, s.bytes = p.clock+t, bytes
	p.sent(t, bytes)
	key := matchKey{src: int32(root), comm: int32(g.id), tag: tag}
	if int(g.arrived.Add(1)) == len(g.ranks)-1 {
		c.w.send(root, key, message{})
	}
	msg, err := c.w.recv(p, key)
	return msg.arrival, err
}

// await is the root's first half: it waits for the last member's wake
// and replays, in local-rank order, the receive of every member's send.
func (c *Comm) await(tag int) error {
	p, g := c.proc, c.g
	if len(g.ranks) == 1 {
		return nil
	}
	if _, err := c.w.recv(p, matchKey{src: int32(p.rank), comm: int32(g.id), tag: tag}); err != nil {
		return err
	}
	g.arrived.Store(0)
	for r := 1; r < len(g.slots); r++ {
		p.received(g.slots[r].arrival, g.slots[r].bytes)
	}
	return nil
}

// release is the root's second half: it sends every member a
// header-only release that arrives when an answer of bytes would have.
func (c *Comm) release(tag, bytes int) {
	p, g := c.proc, c.g
	for r := 1; r < len(g.ranks); r++ {
		dst := g.ranks[r]
		t := c.w.tm.Transfer(p.rank, dst, bytes)
		arrival := p.clock + t
		p.sent(t, bytes)
		c.w.send(dst, matchKey{src: int32(p.rank), comm: int32(g.id), tag: tag}, message{arrival: arrival})
	}
}

// Barrier synchronizes the communicator: all clocks advance to the
// latest participant (plus transfer costs of the gather/release tree).
// It carries no payload and allocates nothing.
func (c *Comm) Barrier() error {
	if c.me != 0 {
		a, err := c.arrive(tagBarrier, 0)
		if err != nil {
			return err
		}
		c.proc.received(a, 0)
		return nil
	}
	if err := c.await(tagBarrier); err != nil {
		return err
	}
	c.release(tagBarrier, 0)
	return nil
}

// Op is a reduction operator.
type Op func(a, b float64) float64

// OpSum is the sum reduction.
var OpSum Op = func(a, b float64) float64 { return a + b }

// Allreduce combines vals element-wise across the communicator with op,
// in local-rank order, and returns the result on every rank. A
// non-root rank's result comes from the payload pool.
func (c *Comm) Allreduce(op Op, vals []float64) ([]float64, error) {
	g := c.g
	if c.me != 0 {
		g.slots[c.me].vals = vals
		a, err := c.arrive(tagReduce, 8*len(vals))
		if err != nil {
			return nil, err
		}
		res := c.AllocPayload(len(g.res))
		copy(res, g.res)
		c.proc.received(a, 8*len(res))
		return res, nil
	}
	if err := c.await(tagReduce); err != nil {
		return nil, err
	}
	res := append([]float64(nil), vals...)
	for r := 1; r < len(g.slots); r++ {
		v := g.slots[r].vals
		for i := range res {
			res[i] = op(res[i], v[i])
		}
		g.slots[r].vals = nil
	}
	// The caller owns res once Allreduce returns; members copy g.res.
	g.res = append(g.res[:0], res...)
	c.release(tagReduce, 8*len(res))
	return res, nil
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

// splitBytes is the payload a Split member's request and answer would
// each carry: two float64s, (color, key) and (id, local rank).
const splitBytes = 16

// Split partitions the communicator by color, ordering members by
// (key, current local rank), like MPI_Comm_split. Every rank must call
// it. Ranks passing a negative color receive nil (MPI_UNDEFINED).
//
// The root reads every (color, key) from the rendezvous, makes each new
// communicator's group once and writes each member its handle from the
// group's slab: members share the group's canonical rank list and
// handles, so a split is O(n) in time and memory and makes a constant
// number of heap objects per new group.
func (c *Comm) Split(color, key int) (*Comm, error) {
	g := c.g
	s := &g.slots[c.me]
	s.color, s.key = color, key
	if c.me != 0 {
		a, err := c.arrive(tagSplit, splitBytes)
		if err != nil {
			return nil, err
		}
		c.proc.received(a, splitBytes)
		return c.joined(s)
	}
	if err := c.await(tagSplit); err != nil {
		return nil, err
	}
	colors := map[int][]int{} // color -> local ranks
	var order []int
	for r := range g.slots {
		if col := g.slots[r].color; col >= 0 {
			if _, ok := colors[col]; !ok {
				order = append(order, col)
			}
			colors[col] = append(colors[col], r)
		}
		g.slots[r].sub = nil
	}
	sort.Ints(order)
	// Allocate world-unique communicator ids for the groups, assigned
	// deterministically by ascending color.
	firstID := int(c.w.commSeq.Add(int64(len(order)))) - len(order)
	for gi, col := range order {
		members := colors[col]
		sort.Slice(members, func(a, b int) bool {
			ka, kb := g.slots[members[a]].key, g.slots[members[b]].key
			if ka != kb {
				return ka < kb
			}
			return members[a] < members[b]
		})
		globals := make([]int, len(members))
		for i, r := range members {
			globals[i] = g.ranks[r]
		}
		sub := newGroup(c.w, firstID+gi, globals)
		for i, r := range members {
			g.slots[r].sub = &sub.comms[i]
		}
	}
	c.release(tagSplit, splitBytes)
	return c.joined(s)
}

// joined returns the communicator Split's answer in s names, or nil.
// The handle lives in its group's slab; only its member writes proc.
func (c *Comm) joined(s *slot) (*Comm, error) {
	if s.sub != nil {
		s.sub.proc = c.proc
	}
	return s.sub, nil
}

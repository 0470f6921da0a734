// Package netsim models message transfer times on a 3D torus with
// static link contention. During a communication phase (e.g. one halo
// exchange of all ranks), every message's dimension-ordered route is
// accumulated onto the directed links it traverses; a message's
// effective bandwidth is the raw link bandwidth divided by the maximum
// link multiplicity along its route. This reproduces the paper's
// observation that placing siblings on small, compact torus regions
// "leads to lesser congestion and smaller delay for point-to-point
// message transfer between neighbouring processes" (Section 4.3.2).
//
// The kernel (DESIGN.md Section 8): link loads live in a dense []int32
// indexed by torus.LinkIndex, and Reset clears only the links touched
// since the previous phase. AddFlow walks a message's route exactly
// once: the walk appends the route's link indices to an arena owned by
// the Network and bumps the loads as it goes, so that FlowHops and
// FlowLoad can later read the i-th recorded flow without routing it
// again, and Params.MessageTime prices it from those two numbers. Halo
// routes are one to three hops, and walking them (a compare and an add
// per hop) is cheaper than looking them up, so nothing is cached and a
// Network shares no state with any other: distinct Networks can be
// driven from distinct goroutines without synchronisation. A single
// Network is not safe for concurrent use. Every buffer is reused across
// phases, so the steady state allocates nothing.
package netsim

import (
	"errors"
	"fmt"
	"sort"

	"nestwrf/internal/torus"
)

// Params are the link-level parameters of the network. Times are in
// seconds, sizes in bytes.
type Params struct {
	// LatencyPerHop is the per-hop propagation/router delay.
	LatencyPerHop float64
	// Overhead is the fixed per-message software (MPI stack) overhead.
	Overhead float64
	// Bandwidth is the raw bandwidth of one directed link, bytes/s.
	Bandwidth float64
}

// MessageTime returns the modeled time of one message of the given size
// over hops links whose highest load is load (1 on an idle network):
// overhead + hops·latency + bytes / (bandwidth / load). A self-message
// (no hops) costs only the software overhead.
func (p Params) MessageTime(hops, load, bytes int) float64 {
	if hops == 0 {
		return p.Overhead
	}
	return p.Overhead +
		float64(hops)*p.LatencyPerHop +
		float64(bytes)*float64(load)/p.Bandwidth
}

// ErrBadParams is returned for non-positive network parameters.
var ErrBadParams = errors.New("netsim: parameters must be positive")

// Validate checks p; the negated comparisons refuse NaN too.
func (p Params) Validate() error {
	if !(p.LatencyPerHop > 0) || !(p.Overhead >= 0) || !(p.Bandwidth > 0) {
		return fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	return nil
}

// Network accumulates per-link loads for a communication phase and
// computes message transfer times under the resulting contention.
type Network struct {
	Torus  torus.Torus
	Params Params

	// load is the dense per-link load indexed by torus.LinkIndex;
	// touched lists the links with load > 0, for O(touched) Reset and
	// stats.
	load    []int32
	touched []torus.LinkIndex
	// arena holds the routes of the flows added since the last Reset,
	// back to back in AddFlow order; flow i ends at arena[ends[i]].
	arena []torus.LinkIndex
	ends  []int32
	// scratch receives the route of an ad-hoc PathLoad/TransferTime
	// query.
	scratch []torus.LinkIndex
}

// New returns a Network for the given torus and parameters.
func New(t torus.Torus, p Params) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Network{Torus: t, Params: p, load: make([]int32, t.LinkIndexCount())}, nil
}

// Reset clears the accumulated link loads and forgets the recorded
// flows, starting a new phase. Only links touched since the previous
// Reset are cleared.
func (n *Network) Reset() {
	for _, li := range n.touched {
		n.load[li] = 0
	}
	n.touched = n.touched[:0]
	n.arena = n.arena[:0]
	n.ends = n.ends[:0]
}

// ResetTo is Reset followed by a move to torus t. Every load is zero
// after Reset, so the load array is reused whenever it is long enough.
func (n *Network) ResetTo(t torus.Torus) {
	n.Reset()
	if c := t.LinkIndexCount(); cap(n.load) >= c {
		n.load = n.load[:c]
	} else {
		n.load = make([]int32, c)
	}
	n.Torus = t
}

// AddFlow registers one message from a to b for the current phase,
// loading every directed link along its dimension-ordered route, and
// records the route as the phase's next flow (see FlowLoad).
// Self-messages add no load.
func (n *Network) AddFlow(a, b torus.Coord) {
	start := len(n.arena)
	n.arena = n.Torus.RouteIndicesInto(a, b, n.arena)
	for _, li := range n.arena[start:] {
		if n.load[li] == 0 {
			n.touched = append(n.touched, li)
		}
		n.load[li]++
	}
	n.ends = append(n.ends, int32(len(n.arena)))
}

// AddFlows registers all messages of a phase given as coordinate pairs;
// each pair is counted in both directions, as halo exchanges are.
func (n *Network) AddFlows(pairs [][2]torus.Coord) {
	for _, p := range pairs {
		n.AddFlow(p[0], p[1])
		n.AddFlow(p[1], p[0])
	}
}

// flow returns the recorded route of the i-th flow of the phase.
func (n *Network) flow(i int) []torus.LinkIndex {
	start := int32(0)
	if i > 0 {
		start = n.ends[i-1]
	}
	return n.arena[start:n.ends[i]]
}

// Flows returns the number of flows added since the last Reset.
func (n *Network) Flows() int { return len(n.ends) }

// FlowHops returns the hop count of the i-th flow added since the last
// Reset.
func (n *Network) FlowHops(i int) int { return len(n.flow(i)) }

// FlowLoad is PathLoad for the i-th flow added since the last Reset,
// read from its recorded route instead of routing the message again.
// Call it once the phase's flows are all added: it sees the loads as
// they are now.
func (n *Network) FlowLoad(i int) int { return int(n.pathLoad(n.flow(i))) }

// pathLoad returns the highest load along route, counting the message
// under consideration on links that carry nothing else.
func (n *Network) pathLoad(route []torus.LinkIndex) int32 {
	max := int32(0)
	for _, li := range route {
		c := n.load[li]
		if c == 0 {
			c = 1
		}
		if c > max {
			max = c
		}
	}
	return max
}

// PathLoad returns the maximum link multiplicity along the route from a
// to b under the current phase's loads. The returned value is at least
// 1 for distinct endpoints (the message itself always uses its links)
// and 0 for a == b.
func (n *Network) PathLoad(a, b torus.Coord) int {
	n.scratch = n.Torus.RouteIndicesInto(a, b, n.scratch[:0])
	return int(n.pathLoad(n.scratch))
}

// MaxLinkLoad returns the highest load on any link in the current
// phase.
func (n *Network) MaxLinkLoad() int {
	max := 0
	for _, li := range n.touched {
		if c := int(n.load[li]); c > max {
			max = c
		}
	}
	return max
}

// TotalHops returns the total number of link traversals registered in
// the current phase — the hop-byte style congestion metric of the
// paper's Section 2.3 (with unit message size).
func (n *Network) TotalHops() int {
	sum := 0
	for _, li := range n.touched {
		sum += int(n.load[li])
	}
	return sum
}

// LoadBucket is one entry of a link-load histogram: Links links carry
// exactly Load concurrent messages.
type LoadBucket struct {
	Load  int `json:"load"`
	Links int `json:"links"`
}

// Congestion summarizes the link loads of one communication phase.
type Congestion struct {
	// Links is the number of distinct directed links carrying traffic.
	Links int `json:"links"`
	// TotalHops is the total number of link traversals (hop-byte style
	// congestion with unit message size).
	TotalHops int `json:"total_hops"`
	// MaxLoad is the highest multiplicity on any link — the kappa that
	// divides the bandwidth of the worst message.
	MaxLoad int `json:"max_load"`
	// Histogram counts links by exact multiplicity, ascending by load.
	Histogram []LoadBucket `json:"histogram"`
}

// Stats summarizes the current phase's accumulated link loads. The
// histogram makes visible *why* compact mappings cut MPI_Wait: better
// placements shift links toward lower multiplicities.
func (n *Network) Stats() Congestion {
	c := Congestion{Links: len(n.touched)}
	counts := map[int]int{}
	for _, li := range n.touched {
		load := int(n.load[li])
		c.TotalHops += load
		if load > c.MaxLoad {
			c.MaxLoad = load
		}
		counts[load]++
	}
	loads := make([]int, 0, len(counts))
	for l := range counts {
		loads = append(loads, l)
	}
	sort.Ints(loads)
	for _, l := range loads {
		c.Histogram = append(c.Histogram, LoadBucket{Load: l, Links: counts[l]})
	}
	return c
}

// TransferTime returns the modeled time for one message of the given
// size from a to b under the current phase's contention: MessageTime
// over its route's hop count and path load.
func (n *Network) TransferTime(a, b torus.Coord, bytes int) float64 {
	n.scratch = n.Torus.RouteIndicesInto(a, b, n.scratch[:0])
	return n.Params.MessageTime(len(n.scratch), int(n.pathLoad(n.scratch)), bytes)
}

package netsim

import (
	"sort"

	"nestwrf/internal/torus"
)

// refNetwork is the test-only oracle for Network: the original
// map-based accounting, keyed by torus.Link structs, that routes every
// message afresh through torus.Route on every query. It shares no code
// with the dense kernel beyond Params, so agreement between the two
// (equivalence_test.go) checks the dense loads, the recorded-flow arena
// and the division-free route walk at once.
type refNetwork struct {
	tor   torus.Torus
	p     Params
	load  map[torus.Link]int
	flows [][2]torus.Coord
}

func newRef(t torus.Torus, p Params) *refNetwork {
	return &refNetwork{tor: t, p: p, load: map[torus.Link]int{}}
}

func (n *refNetwork) Reset() {
	n.load = map[torus.Link]int{}
	n.flows = nil
}

func (n *refNetwork) AddFlow(a, b torus.Coord) {
	for _, l := range n.tor.Route(a, b) {
		n.load[l]++
	}
	n.flows = append(n.flows, [2]torus.Coord{a, b})
}

func (n *refNetwork) AddFlows(pairs [][2]torus.Coord) {
	for _, p := range pairs {
		n.AddFlow(p[0], p[1])
		n.AddFlow(p[1], p[0])
	}
}

func (n *refNetwork) PathLoad(a, b torus.Coord) int {
	max := 0
	for _, l := range n.tor.Route(a, b) {
		c := n.load[l]
		if c == 0 {
			c = 1 // count the message under consideration
		}
		if c > max {
			max = c
		}
	}
	return max
}

func (n *refNetwork) TransferTime(a, b torus.Coord, bytes int) float64 {
	hops := n.tor.Hops(a, b)
	if hops == 0 {
		return n.p.Overhead
	}
	return n.p.Overhead +
		float64(hops)*n.p.LatencyPerHop +
		float64(bytes)*float64(n.PathLoad(a, b))/n.p.Bandwidth
}

func (n *refNetwork) FlowHops(i int) int {
	return n.tor.Hops(n.flows[i][0], n.flows[i][1])
}

func (n *refNetwork) FlowTime(i, bytes int) float64 {
	return n.TransferTime(n.flows[i][0], n.flows[i][1], bytes)
}

func (n *refNetwork) Stats() Congestion {
	c := Congestion{Links: len(n.load)}
	counts := map[int]int{}
	for _, load := range n.load {
		c.TotalHops += load
		if load > c.MaxLoad {
			c.MaxLoad = load
		}
		counts[load]++
	}
	for l, links := range counts {
		c.Histogram = append(c.Histogram, LoadBucket{Load: l, Links: links})
	}
	sort.Slice(c.Histogram, func(i, j int) bool { return c.Histogram[i].Load < c.Histogram[j].Load })
	return c
}

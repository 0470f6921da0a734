// Package model is the virtual-time cost engine of the simulated WRF:
// it computes per-sub-step computation and communication times for a
// domain decomposed over a rectangular process grid, mapped onto a
// torus, under static link contention from all concurrently executing
// siblings. All experiment timings derive from this engine, so results
// are deterministic and machine-independent; constants live in
// internal/machine and are calibrated against the paper's anchor
// numbers (see calibrate_test.go).
package model

import (
	"math"
	"strconv"
	"sync"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// StepCost is the cost of one sub-step of one domain on its process
// subgrid.
type StepCost struct {
	// Compute is the per-rank computation time (identical across ranks
	// under balanced decomposition).
	Compute float64
	// CommMax is the worst per-rank communication time; Compute+CommMax
	// governs the synchronized step duration.
	CommMax float64
	// CommAvg is the mean per-rank communication time, the model's
	// per-rank MPI_Wait contribution.
	CommAvg float64
	// HopsAvg is the mean torus hop distance between communicating
	// neighbour ranks.
	HopsAvg float64
	// Ranks is the number of ranks the domain ran on.
	Ranks int
}

// Time returns the wall time of the synchronized sub-step.
func (c StepCost) Time() float64 { return c.Compute + c.CommMax }

// Placement binds a domain to the process subgrid it executes on.
type Placement struct {
	D  *nest.Domain
	SG vtopo.Subgrid
}

// PhaseCosts computes the StepCost of every placement executing
// concurrently: link loads from all placements' halo exchanges are
// accumulated first, then each placement's communication times are
// evaluated under that contention. Passing a single placement models a
// phase where only that domain communicates (the default sequential
// strategy).
func PhaseCosts(m machine.Machine, mp *mapping.Mapping, placements []Placement) []StepCost {
	return phaseCosts(m, mp, placements, true)
}

// PhaseCostsNoContention evaluates the placements against an idle
// network (every message sees full link bandwidth). It exists for the
// contention ablation: comparing it with PhaseCosts isolates how much
// of the communication time the link-sharing model contributes.
func PhaseCostsNoContention(m machine.Machine, mp *mapping.Mapping, placements []Placement) []StepCost {
	return phaseCosts(m, mp, placements, false)
}

// PhaseCostsCongestion is PhaseCosts plus the congestion summary of
// the phase's accumulated link loads — the observability variant used
// when a run assembles a structured report. It is deliberately a
// separate entry point so the uninstrumented path stays allocation-
// identical.
func PhaseCostsCongestion(m machine.Machine, mp *mapping.Mapping, placements []Placement) ([]StepCost, netsim.Congestion) {
	net := acquireNet(mp.Torus, m.Net)
	out := evalPhase(m, mp, net, placements, true)
	stats := net.Stats()
	releaseNet(net)
	return out, stats
}

// Phase-cost memoization (DESIGN.md Section 8). A phase's StepCosts
// are fully determined by the machine's cost parameters, the mapping's
// rank-to-node table, the contention flag, and the placements' domain
// extents and subgrid rectangles — all of which the key below encodes
// exactly (floats by their IEEE-754 bit patterns). Sweep experiments
// re-evaluate identical phases across steps, strategies and repeated
// configurations, so this is the model-layer analogue of the
// experiment harness's shared predictor cache.
var (
	phaseMu    sync.RWMutex
	phaseCache = map[string][]StepCost{}
)

// maxPhaseEntries bounds phaseCache: a long-running plan server sees
// an open-ended stream of distinct phases (about two per distinct
// request), while the largest working set that profits from the memo
// — the whole evaluation suite — is under 2.3k entries. A full cache
// is dropped whole; the next evaluations refill it.
const maxPhaseEntries = 8192

// ResetCache drops all memoized phase costs.
func ResetCache() {
	phaseMu.Lock()
	phaseCache = map[string][]StepCost{}
	phaseMu.Unlock()
}

// appendBits appends the exact bit pattern of a float64 to a cache key.
func appendBits(b []byte, v float64) []byte {
	return strconv.AppendUint(append(b, ':'), math.Float64bits(v), 16)
}

// phaseKey renders the memoization key for one phase evaluation, or
// ok=false when the mapping carries no content key (hand-built).
func phaseKey(m machine.Machine, mp *mapping.Mapping, placements []Placement, contention bool) (string, bool) {
	mk := mp.Key()
	if mk == "" {
		return "", false
	}
	b := make([]byte, 0, 160+32*len(placements))
	b = append(b, mk...)
	b = appendBits(b, m.PointCost)
	b = appendBits(b, m.StepOverhead)
	b = appendBits(b, m.BytesPerPoint)
	b = appendBits(b, m.Net.LatencyPerHop)
	b = appendBits(b, m.Net.Overhead)
	b = appendBits(b, m.Net.Bandwidth)
	b = strconv.AppendInt(append(b, ':'), int64(m.ExchangesPerStep), 10)
	if contention {
		b = append(b, '+')
	}
	for _, p := range placements {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(p.D.NX), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(p.D.NY), 10)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(p.SG.Rect.X), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.SG.Rect.Y), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.SG.Rect.W), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.SG.Rect.H), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(p.SG.Parent.Px), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(p.SG.Parent.Py), 10)
	}
	return string(b), true
}

// netPools reuses Network scratch state (the dense load array and
// touched-link list) across phaseCosts calls, keyed by the network's
// identity so pooled items are always directly reusable.
var netPools sync.Map // netPoolKey -> *sync.Pool

type netPoolKey struct {
	t torus.Torus
	p netsim.Params
}

func acquireNet(t torus.Torus, p netsim.Params) *netsim.Network {
	key := netPoolKey{t: t, p: p}
	poolAny, ok := netPools.Load(key)
	if !ok {
		poolAny, _ = netPools.LoadOrStore(key, &sync.Pool{})
	}
	pool := poolAny.(*sync.Pool)
	if n, ok := pool.Get().(*netsim.Network); ok && n != nil {
		n.Reset()
		return n
	}
	n, err := netsim.New(t, p)
	if err != nil {
		// Machine parameters are validated at construction; a failure here
		// is a programming error.
		panic(err)
	}
	return n
}

func releaseNet(n *netsim.Network) {
	if poolAny, ok := netPools.Load(netPoolKey{t: n.Torus, p: n.Params}); ok {
		poolAny.(*sync.Pool).Put(n)
	}
}

func phaseCosts(m machine.Machine, mp *mapping.Mapping, placements []Placement, contention bool) []StepCost {
	key, cacheable := phaseKey(m, mp, placements, contention)
	if cacheable {
		phaseMu.RLock()
		cached, ok := phaseCache[key]
		phaseMu.RUnlock()
		if ok {
			return cached
		}
	}
	net := acquireNet(mp.Torus, m.Net)
	out := evalPhase(m, mp, net, placements, contention)
	releaseNet(net)
	if cacheable {
		phaseMu.Lock()
		if len(phaseCache) >= maxPhaseEntries {
			phaseCache = map[string][]StepCost{}
		}
		phaseCache[key] = out
		phaseMu.Unlock()
	}
	return out
}

// evalPhase evaluates every placement on the (empty) network net: under
// contention the halo messages of all placements are first added to net
// as flows, which stepCost then prices back in the order they were
// added, so no route is walked twice.
func evalPhase(m machine.Machine, mp *mapping.Mapping, net *netsim.Network, placements []Placement, contention bool) []StepCost {
	flow := -1 // no recorded flows: price messages on the idle network
	if contention {
		addPhaseFlows(net, mp, placements)
		flow = 0
	}
	out := make([]StepCost, len(placements))
	for i, p := range placements {
		out[i], flow = stepCost(m, mp, net, p, flow)
	}
	return out
}

// addPhaseFlows accumulates the halo-exchange link loads of every
// placement onto net: one flow per rank and existing West, East, South,
// North neighbour, in placement, local-rank and direction order.
func addPhaseFlows(net *netsim.Network, mp *mapping.Mapping, placements []Placement) {
	for _, p := range placements {
		for y := p.SG.Rect.Y; y < p.SG.Rect.Y+p.SG.Rect.H; y++ {
			for x := p.SG.Rect.X; x < p.SG.Rect.X+p.SG.Rect.W; x++ {
				r := p.SG.Parent.Rank(x, y)
				src := mp.NodeOf(r)
				for _, nb := range haloNeighbors(p.SG, r, x, y) {
					if nb >= 0 {
						net.AddFlow(src, mp.NodeOf(nb))
					}
				}
			}
		}
	}
}

// haloNeighbors returns the parent ranks of the West, East, South and
// North neighbours of parent rank r at parent position (x, y) inside
// sg, -1 where the subgrid ends (weather domains do not wrap).
func haloNeighbors(sg vtopo.Subgrid, r, x, y int) [4]int {
	nb := [4]int{-1, -1, -1, -1}
	if x > sg.Rect.X {
		nb[vtopo.West] = r - 1
	}
	if x+1 < sg.Rect.X+sg.Rect.W {
		nb[vtopo.East] = r + 1
	}
	if y > sg.Rect.Y {
		nb[vtopo.South] = r - sg.Parent.Px
	}
	if y+1 < sg.Rect.Y+sg.Rect.H {
		nb[vtopo.North] = r + sg.Parent.Px
	}
	return nb
}

// stepCost evaluates one placement. With flow >= 0 the placement's
// messages are the recorded flows of net starting at index flow (see
// addPhaseFlows) and the index after its last one is returned; with
// flow < 0 the network is idle and a message's cost follows from its
// hop count alone.
func stepCost(m machine.Machine, mp *mapping.Mapping, net *netsim.Network, p Placement, flow int) (StepCost, int) {
	w, h := p.SG.Rect.W, p.SG.Rect.H
	lx := ceilDiv(p.D.NX, w)
	ly := ceilDiv(p.D.NY, h)

	cost := StepCost{
		Compute: m.PointCost*float64(lx)*float64(ly) + m.StepOverhead,
		Ranks:   w * h,
	}

	// East/west messages carry a column of the tile, south/north ones a
	// row, each split over the step's exchanges.
	msgs := float64(m.ExchangesPerStep)
	col := int(float64(ly) * m.BytesPerPoint / msgs)
	row := int(float64(lx) * m.BytesPerPoint / msgs)
	msgBytes := [4]int{vtopo.West: col, vtopo.East: col, vtopo.South: row, vtopo.North: row}

	var commSum float64
	var hopSum, hopCnt int
	for y := p.SG.Rect.Y; y < p.SG.Rect.Y+h; y++ {
		for x := p.SG.Rect.X; x < p.SG.Rect.X+w; x++ {
			var commR float64
			r := p.SG.Parent.Rank(x, y)
			for d, nb := range haloNeighbors(p.SG, r, x, y) {
				if nb < 0 {
					continue
				}
				if flow >= 0 {
					commR += msgs * net.FlowTime(flow, msgBytes[d])
					hopSum += net.FlowHops(flow)
					flow++
				} else {
					commR += msgs * net.UncontendedTime(mp.NodeOf(r), mp.NodeOf(nb), msgBytes[d])
					hopSum += mp.Hops(r, nb)
				}
				hopCnt++
			}
			commSum += commR
			if commR > cost.CommMax {
				cost.CommMax = commR
			}
		}
	}
	cost.CommAvg = commSum / float64(cost.Ranks)
	if hopCnt > 0 {
		cost.HopsAvg = float64(hopSum) / float64(hopCnt)
	}
	return cost, flow
}

// SingleDomainStep computes the cost of one sub-step of a domain that
// runs alone on the full process grid (the parent simulation, or a
// sibling under the default sequential strategy).
func SingleDomainStep(m machine.Machine, mp *mapping.Mapping, d *nest.Domain) StepCost {
	full := vtopo.Subgrid{
		Parent: mp.Grid,
		Rect:   alloc.Rect{W: mp.Grid.Px, H: mp.Grid.Py},
	}
	return PhaseCosts(m, mp, []Placement{{D: d, SG: full}})[0]
}

// CouplingCost returns the per-parent-step cost of nesting
// bookkeeping for a child domain: interpolating the lateral boundary
// conditions from the parent and feeding the solution back. It is
// proportional to the nest's boundary and interior shares per rank.
func CouplingCost(m machine.Machine, d *nest.Domain, ranks int) float64 {
	if ranks <= 0 {
		return 0
	}
	boundary := float64(d.BoundaryPoints()) / float64(ranks)
	feedback := float64(d.Points()) / float64(ranks) / float64(d.Ratio*d.Ratio)
	return m.PointCost * 0.25 * (boundary + feedback)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

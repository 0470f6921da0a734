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
	"slices"
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

// PhaseCongestion is the congestion summary of the link loads the
// placements' halo exchanges put on the torus under mp — the phase
// PhaseCosts prices. Only reports read it, once per phase they record.
func PhaseCongestion(m machine.Machine, mp *mapping.Mapping, placements []Placement) netsim.Congestion {
	h := takeNet(m, mp, placements)
	defer releaseNet(h)
	return h.net.Stats()
}

// Phase-cost memoization (DESIGN.md Section 8). A phase's StepCosts
// are fully determined by the machine, the mapping's rank-to-node
// table, the contention flag, and the placements' domain extents and
// subgrid rectangles — all of which appendPhaseKey encodes exactly
// (floats by their IEEE-754 bit patterns). Sweep experiments
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

// ResetCache drops all memoized phase costs and every stored flow
// table, keeping the table ring's slab.
func ResetCache() {
	phaseMu.Lock()
	phaseCache = map[string][]StepCost{}
	phaseMu.Unlock()
	tables.Lock()
	tables.idx, tables.next = tables.idx[:0], 0
	tables.Unlock()
}

// phaseKeyBuf sizes phaseCosts' stack key buffer: a mapping key, a
// machine segment (≈ 215 bytes) and five placements fit.
const phaseKeyBuf = 512

// appendPhaseKey appends the memoization key of one phase evaluation to
// b: mapping key, m.AppendKey, contention mark and placements; or
// ok=false when the mapping carries no content key (hand-built).
func appendPhaseKey(b []byte, m machine.Machine, mp *mapping.Mapping, placements []Placement, contention bool) ([]byte, bool) {
	mk := mp.Key()
	if mk == "" {
		return b, false
	}
	b = m.AppendKey(append(b, mk...))
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
	return b, true
}

// maxIdleNets bounds the idle scratch networks (DESIGN.md Section 8).
const maxIdleNets = 2

// heldNet is routing scratch kept across phases: a Network, the
// (hops, load) table of the flows last routed on it in route's order,
// and route's three-row window of nodes. The Network's Params are never
// read: stepCost prices with the phase's own machine, since the loads
// depend on the geometry alone.
type heldNet struct {
	net    *netsim.Network
	flows  []flowLoad
	window []torus.Coord
}

type flowLoad struct{ hops, load int32 }

// idle lists the networks no phase is using.
var idle struct {
	sync.Mutex
	nets []*heldNet
}

// ringFlows is the table ring's capacity, 1 MiB (DESIGN.md Section 8).
const ringFlows = 1 << 17

// tables is the ring of routed geometries' flow tables every goroutine
// prices from. Each table is slab[off:off+n], the contended halo of the
// placements on subgrids sgs under the mapping keyed key; idx lists them
// oldest first, and a table is dropped when the ring overwrites it. The
// slab comes with the first table and survives ResetCache.
var tables struct {
	sync.RWMutex
	slab []flowLoad
	next int // where the next table starts
	idx  []struct {
		key    string
		sgs    []vtopo.Subgrid
		off, n int
	}
}

// takeNet returns an idle network (or a new one) with the contended
// halo of placements under mp routed on it and tabled in its flows,
// owned by the caller until releaseNet.
func takeNet(m machine.Machine, mp *mapping.Mapping, placements []Placement) *heldNet {
	var h *heldNet
	idle.Lock()
	if n := len(idle.nets); n > 0 {
		h, idle.nets = idle.nets[n-1], idle.nets[:n-1]
	}
	idle.Unlock()
	if h == nil {
		net, err := netsim.New(mp.Torus, m.Net)
		if err != nil {
			panic(err) // machine parameters are validated at construction
		}
		h = &heldNet{net: net}
	}
	h.route(mp, placements)
	return h
}

// releaseNet returns h to the idle list unless the list is full.
func releaseNet(h *heldNet) {
	idle.Lock()
	if len(idle.nets) < maxIdleNets {
		idle.nets = append(idle.nets, h)
	}
	idle.Unlock()
}

// contendedCosts prices placements under mp from the ring's table of
// their halo, under the read lock. A miss routes the halo on a network
// and prices from its table, then copies that into the ring only if no
// pricer holds it and no other miss stored it meanwhile: a miss never
// waits while it holds a network.
func contendedCosts(m machine.Machine, mp *mapping.Mapping, placements []Placement) []StepCost {
	key := mp.Key()
	tables.RLock()
	if i := heldTable(key, placements); i >= 0 {
		t := &tables.idx[i]
		out := priceFlows(m, mp, placements, tables.slab[t.off:t.off+t.n])
		tables.RUnlock()
		return out
	}
	tables.RUnlock()
	h := takeNet(m, mp, placements)
	out := priceFlows(m, mp, placements, h.flows)
	if key != "" && len(h.flows) <= ringFlows && tables.TryLock() {
		if heldTable(key, placements) < 0 { // another miss may have stored it since
			storeTable(key, placements, h.flows)
		}
		tables.Unlock()
	}
	releaseNet(h)
	return out
}

// heldTable returns the index of the ring's table of placements under
// the mapping keyed key, or -1. The caller holds tables' lock or read
// lock.
func heldTable(key string, placements []Placement) int {
	for i := len(tables.idx) - 1; i >= 0; i-- {
		t := &tables.idx[i]
		if slices.EqualFunc(t.sgs, placements, func(sg vtopo.Subgrid, p Placement) bool { return sg == p.SG }) && t.key == key {
			return i
		}
	}
	return -1
}

// storeTable copies flows into the ring after the last table, or from
// the slab's start where they do not fit, dropping the tables they
// overwrite and reusing those tables' subgrid buffers. The caller holds
// tables' lock.
func storeTable(key string, placements []Placement, flows []flowLoad) {
	if tables.slab == nil {
		tables.slab = make([]flowLoad, ringFlows)
	}
	idx, drop := tables.idx, 0
	if tables.next+len(flows) > ringFlows {
		for drop < len(idx) && idx[drop].off >= tables.next { // the oldest tables, past next
			drop++
		}
		tables.next = 0
	}
	end := tables.next + len(flows)
	for drop < len(idx) && idx[drop].off >= tables.next && idx[drop].off < end {
		drop++
	}
	for i := 0; i+drop < len(idx); i++ {
		idx[i], idx[i+drop] = idx[i+drop], idx[i]
	}
	idx = slices.Grow(idx[:len(idx)-drop], 1)[:len(idx)-drop+1]
	t := &idx[len(idx)-1]
	t.key, t.off, t.n, t.sgs = key, tables.next, copy(tables.slab[tables.next:], flows), t.sgs[:0]
	for _, p := range placements {
		t.sgs = append(t.sgs, p.SG)
	}
	tables.idx, tables.next = idx, end
}

func phaseCosts(m machine.Machine, mp *mapping.Mapping, placements []Placement, contention bool) []StepCost {
	var buf [phaseKeyBuf]byte
	key, cacheable := appendPhaseKey(buf[:0], m, mp, placements, contention)
	if cacheable {
		phaseMu.RLock()
		cached, ok := phaseCache[string(key)]
		phaseMu.RUnlock()
		if ok {
			return cached
		}
	}
	var out []StepCost
	if contention {
		out = contendedCosts(m, mp, placements)
	} else {
		out = priceFlows(m, mp, placements, nil)
	}
	if cacheable {
		phaseMu.Lock()
		if len(phaseCache) >= maxPhaseEntries {
			phaseCache = map[string][]StepCost{}
		}
		phaseCache[string(key)] = out
		phaseMu.Unlock()
	}
	return out
}

// priceFlows evaluates every placement of a phase. Under contention
// flows is the phase's flow table (see takeNet), which stepCost
// reads in order, so no route is walked again; nil prices every message
// on the idle network from its hop count alone.
func priceFlows(m machine.Machine, mp *mapping.Mapping, placements []Placement, flows []flowLoad) []StepCost {
	out := make([]StepCost, len(placements))
	for i, p := range placements {
		out[i], flows = stepCost(m, mp, p, flows)
	}
	return out
}

// route makes h.net's loads the contended halo of placements under mp
// and h.flows its table: one flow per rank and existing West, East,
// South, North neighbour, in placement, local-rank and direction order.
// The nodes of a placement's South, current and North rows sit in
// h.window, each North node read as its flow is added, so each rank's
// node is read once.
func (h *heldNet) route(mp *mapping.Mapping, placements []Placement) {
	h.net.ResetTo(mp.Torus)
	for _, p := range placements {
		rc, px := p.SG.Rect, p.SG.Parent.Px
		if len(h.window) < 3*rc.W {
			h.window = make([]torus.Coord, 3*rc.W)
		}
		south, cur, north := h.window[:rc.W], h.window[rc.W:2*rc.W], h.window[2*rc.W:3*rc.W]
		r := p.SG.Parent.Rank(rc.X, rc.Y)
		for i := range cur {
			cur[i] = mp.NodeOf(r + i)
		}
		for y := rc.Y; y < rc.Y+rc.H; y, r = y+1, r+px {
			for i, src := range cur {
				if i > 0 {
					h.net.AddFlow(src, cur[i-1])
				}
				if i+1 < rc.W {
					h.net.AddFlow(src, cur[i+1])
				}
				if y > rc.Y {
					h.net.AddFlow(src, south[i])
				}
				if y+1 < rc.Y+rc.H {
					north[i] = mp.NodeOf(r + px + i)
					h.net.AddFlow(src, north[i])
				}
			}
			south, cur, north = cur, north, south
		}
	}
	h.flows = h.flows[:0]
	for i := 0; i < h.net.Flows(); i++ {
		h.flows = append(h.flows, flowLoad{hops: int32(h.net.FlowHops(i)), load: int32(h.net.FlowLoad(i))})
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

// stepCost evaluates one placement. Under contention its messages are
// the first entries of flows (see heldNet.route), and the entries after
// its last one are returned; with flows nil the network is idle.
func stepCost(m machine.Machine, mp *mapping.Mapping, p Placement, flows []flowLoad) (StepCost, []flowLoad) {
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
				hops, load := 0, 1
				if flows == nil {
					hops = mp.Hops(r, nb)
				} else {
					hops, load, flows = int(flows[0].hops), int(flows[0].load), flows[1:]
				}
				commR += msgs * m.Net.MessageTime(hops, load, msgBytes[d])
				hopSum += hops
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
	return cost, flows
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
	feedback := float64(d.Points()) / float64(ranks) / (float64(d.Ratio) * float64(d.Ratio))
	return m.PointCost * 0.25 * (boundary + feedback)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Package mapping places the 2D virtual process topology of a weather
// simulation onto a 3D torus (paper Section 3.3). It implements the
// topology-oblivious placements (the sequential default of Fig. 5(b)
// and Blue Gene's TXYZ ordering) and the paper's two topology-aware
// heuristics: partition mapping (each sibling partition onto contiguous
// torus nodes, Fig. 6(a)) and multi-level mapping (partitions folded
// across z-planes so that parent-domain neighbours are also adjacent,
// Fig. 6(b)).
package mapping

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nestwrf/internal/alloc"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// Mapping assigns every rank of a 2D process grid to a torus node.
type Mapping struct {
	Grid   vtopo.Grid
	Torus  torus.Torus
	Name   string
	nodeOf []uint32 // each rank's Torus.Index; nil is the identity (the sequential placement)
	// key identifies the mapping's content exactly: every constructor is
	// deterministic in its parameters, so (constructor, parameters) pins
	// NodeOf. Used by the model layer's phase-cost memoization.
	key string
}

// Key returns a string that uniquely identifies the rank-to-node
// assignment: two Mappings with equal keys are guaranteed to have
// identical NodeOf results (constructors are deterministic in the
// parameters the key encodes). Empty for hand-built Mappings.
func (m *Mapping) Key() string { return m.key }

// baseKey renders the (constructor, grid, torus) part of a mapping key.
func baseKey(name string, g vtopo.Grid, t torus.Torus) string {
	return fmt.Sprintf("%s|%dx%d|%dx%dx%d", name, g.Px, g.Py, t.X, t.Y, t.Z)
}

// Errors returned by the constructors.
var (
	ErrSizeMismatch = errors.New("mapping: grid size != torus node count")
	ErrNotFoldable  = errors.New("mapping: grid does not fold onto torus")
	ErrBadTDim      = errors.New("mapping: torus Z not divisible by cores per node")
	ErrTooManyRanks = errors.New("mapping: more ranks than a uint32 node table indexes")
)

// NodeOf returns the torus coordinate of rank r.
func (m *Mapping) NodeOf(r int) torus.Coord {
	if m.nodeOf != nil {
		r = int(m.nodeOf[r])
	}
	return m.Torus.CoordOf(r)
}

// Hops returns the torus hop distance between two ranks.
func (m *Mapping) Hops(a, b int) int {
	return m.Torus.Hops(m.NodeOf(a), m.NodeOf(b))
}

// Validate checks that the mapping is a bijection between ranks and
// torus nodes.
func (m *Mapping) Validate() error {
	seen := make(map[torus.Coord]int, m.Grid.Size())
	for r := 0; r < m.Grid.Size(); r++ {
		c := m.NodeOf(r)
		if !m.Torus.Valid(c) {
			return fmt.Errorf("mapping %q: rank %d mapped to invalid coord %v", m.Name, r, c)
		}
		if prev, dup := seen[c]; dup {
			return fmt.Errorf("mapping %q: ranks %d and %d both mapped to %v", m.Name, prev, r, c)
		}
		seen[c] = r
	}
	return nil
}

func check(g vtopo.Grid, t torus.Torus) error {
	if uint64(g.Size()) > math.MaxUint32 {
		return fmt.Errorf("%w: %d", ErrTooManyRanks, g.Size())
	}
	if g.Size() != t.Nodes() {
		return fmt.Errorf("%w: %d ranks, %d nodes", ErrSizeMismatch, g.Size(), t.Nodes())
	}
	return nil
}

// Sequential is the topology-oblivious default placement of Fig. 5(b):
// ranks in increasing order fill torus nodes in increasing x, then y,
// then z order. It keeps no table: NodeOf(r) is t.CoordOf(r).
func Sequential(g vtopo.Grid, t torus.Torus) (*Mapping, error) {
	if err := check(g, t); err != nil {
		return nil, err
	}
	return &Mapping{Grid: g, Torus: t, Name: "sequential", key: baseKey("sequential", g, t)}, nil
}

// TXYZ is Blue Gene's TXYZ ordering: the intra-node T dimension varies
// fastest, so groups of coresPerNode consecutive ranks land on the same
// physical node (modeled as adjacent positions along Z), then x, y, z.
func TXYZ(g vtopo.Grid, t torus.Torus, coresPerNode int) (*Mapping, error) {
	if err := check(g, t); err != nil {
		return nil, err
	}
	if coresPerNode < 1 || t.Z%coresPerNode != 0 {
		return nil, fmt.Errorf("%w: Z=%d, T=%d", ErrBadTDim, t.Z, coresPerNode)
	}
	reduced := torus.Torus{X: t.X, Y: t.Y, Z: t.Z / coresPerNode}
	m := &Mapping{Grid: g, Torus: t, Name: "txyz", nodeOf: make([]uint32, g.Size()),
		key: fmt.Sprintf("%s|cores=%d", baseKey("txyz", g, t), coresPerNode)}
	for r := range m.nodeOf {
		slot := r % coresPerNode
		c := reduced.CoordOf(r / coresPerNode)
		m.nodeOf[r] = uint32(t.Index(torus.Coord{X: c.X, Y: c.Y, Z: c.Z*coresPerNode + slot}))
	}
	return m, nil
}

// foldParams computes the stripe counts of the double fold: the grid's
// x extent is cut into fx stripes of width t.X and the y extent into fy
// stripes of height t.Y, with the fx*fy stripe combinations laid out
// along the torus Z dimension.
func foldParams(g vtopo.Grid, t torus.Torus) (fx, fy int, err error) {
	if err := check(g, t); err != nil {
		return 0, 0, err
	}
	if g.Px%t.X != 0 || g.Py%t.Y != 0 {
		return 0, 0, fmt.Errorf("%w: grid %dx%d, torus %dx%dx%d",
			ErrNotFoldable, g.Px, g.Py, t.X, t.Y, t.Z)
	}
	fx, fy = g.Px/t.X, g.Py/t.Y
	if fx*fy != t.Z {
		return 0, 0, fmt.Errorf("%w: %d stripes for Z=%d", ErrNotFoldable, fx*fy, t.Z)
	}
	return fx, fy, nil
}

// MultiLevel is the paper's multi-level mapping (Fig. 6(b)) generalized
// to stripe folds: the process grid is folded across z-planes with
// boustrophedon (back-and-forth) stripe traversal, so neighbouring
// processes of the parent domain — and therefore of every sibling
// partition — remain neighbours in the torus wherever the fold crosses
// a stripe boundary. Requires Px divisible by the torus X extent, Py by
// the Y extent, and (Px/X)*(Py/Y) == Z.
func MultiLevel(g vtopo.Grid, t torus.Torus) (*Mapping, error) {
	fx, _, err := foldParams(g, t)
	if err != nil {
		return nil, err
	}
	m := &Mapping{Grid: g, Torus: t, Name: "multilevel", nodeOf: make([]uint32, g.Size()), key: baseKey("multilevel", g, t)}
	m.fold(fx, []alloc.Rect{{W: g.Px, H: g.Py}})
	return m, nil
}

// fold fills m's table with the stripe fold of each rectangle of folds,
// the stripe-reversal parity anchored at the rectangle's index: a stripe
// of odd parity runs back, like curling the rectangle over.
func (m *Mapping) fold(fx int, folds []alloc.Rect) {
	t := m.Torus
	for pi, rect := range folds {
		for y := rect.Y; y < rect.Y+rect.H; y++ {
			sy, ly := y/t.Y, y%t.Y
			if (sy+pi)%2 == 1 {
				ly = t.Y - 1 - ly
			}
			for x := rect.X; x < rect.X+rect.W; x++ {
				sx, lx := x/t.X, x%t.X
				if (sx+pi)%2 == 1 {
					lx = t.X - 1 - lx
				}
				m.nodeOf[m.Grid.Rank(x, y)] = uint32(t.Index(torus.Coord{X: lx, Y: ly, Z: sx + fx*sy}))
			}
		}
	}
}

// PartitionMapping is the paper's partition mapping (Fig. 6(a)): every
// sibling partition is folded onto its own contiguous torus region so
// that neighbouring processes *within* a partition are torus
// neighbours. Unlike MultiLevel, each partition folds independently
// (the stripe-reversal parity is anchored per partition), so parent
// neighbours across partition seams may be several hops apart — the
// trade-off Section 3.3.2 describes ("process 3 is 2 hops away from
// process 4" in Fig. 6(a)).
//
// When the grid does not fold onto the torus, each partition instead
// receives a contiguous run of torus nodes in serpentine order, with
// its local ranks assigned serpentine-to-serpentine.
func PartitionMapping(g vtopo.Grid, t torus.Torus, rects []alloc.Rect) (*Mapping, error) {
	if err := check(g, t); err != nil {
		return nil, err
	}
	if err := alloc.Validate(rects, g.Px, g.Py); err != nil {
		return nil, err
	}
	key := baseKey("partition", g, t)
	for _, rect := range rects {
		key += fmt.Sprintf("|%d,%d,%d,%d", rect.X, rect.Y, rect.W, rect.H)
	}
	m := &Mapping{Grid: g, Torus: t, Name: "partition", nodeOf: make([]uint32, g.Size()), key: key}

	if fx, _, err := foldParams(g, t); err == nil {
		// Foldable: fold like MultiLevel, but when every partition aligns
		// to stripe boundaries, anchor the stripe-reversal parity per
		// partition (each sibling folds independently, exactly Fig. 6(a)).
		// Per-partition parity is only injective when no stripe is shared
		// between partitions, hence the alignment requirement; otherwise
		// the global fold is used, which still gives every partition
		// 1-hop internal neighbours.
		if slices.ContainsFunc(rects, func(rect alloc.Rect) bool {
			return rect.X%t.X != 0 || rect.W%t.X != 0 || rect.Y%t.Y != 0 || rect.H%t.Y != 0
		}) {
			rects = []alloc.Rect{{W: g.Px, H: g.Py}}
		}
		m.fold(fx, rects)
		return m, nil
	}

	// Fallback: contiguous serpentine runs per partition.
	offset := 0
	for _, rect := range rects {
		sg, err := vtopo.NewSubgrid(g, rect)
		if err != nil {
			return nil, err
		}
		locals := serpentineRanks(sg.Grid())
		for i, l := range locals {
			m.nodeOf[sg.GlobalRank(l)] = uint32(t.Index(serpentineCoord(t, offset+i)))
		}
		offset += rect.Area()
	}
	return m, nil
}

// serpentineRanks enumerates the ranks of a grid row by row,
// alternating direction each row (boustrophedon), so consecutive ranks
// are always grid neighbours.
func serpentineRanks(g vtopo.Grid) []int {
	out := make([]int, 0, g.Size())
	for y := 0; y < g.Py; y++ {
		if y%2 == 0 {
			for x := 0; x < g.Px; x++ {
				out = append(out, g.Rank(x, y))
			}
		} else {
			for x := g.Px - 1; x >= 0; x-- {
				out = append(out, g.Rank(x, y))
			}
		}
	}
	return out
}

// serpentineCoord returns the i-th torus coordinate of a serpentine
// walk (x back and forth within y, y back and forth within z), so
// consecutive indices are always torus neighbours. The x direction
// alternates with the global row counter so that the walk stays
// continuous across z-plane transitions.
func serpentineCoord(t torus.Torus, i int) torus.Coord {
	z := i / (t.X * t.Y)
	rem := i % (t.X * t.Y)
	yIdx := rem / t.X // traversal position within the plane
	x := rem % t.X
	y := yIdx
	if z%2 == 1 {
		y = t.Y - 1 - yIdx
	}
	if (z*t.Y+yIdx)%2 == 1 {
		x = t.X - 1 - x
	}
	return torus.Coord{X: x, Y: y, Z: z}
}

// Report summarizes the communication locality of a mapping for a
// partitioned run: hop statistics for the parent domain's halo pairs
// and for each sibling partition's internal halo pairs.
type Report struct {
	Name         string
	ParentAvg    float64
	ParentMax    int
	SiblingAvg   []float64
	SiblingMax   []int
	OverallAvg   float64 // parent and sibling pairs combined
	OverallPairs int
}

// Analyze computes a locality Report for mapping m with the sibling
// partitions given by rects in one pass that reads each rank's node
// once: the rows are walked in strips of up to analyzeStrip columns,
// whose nodes of the previous row and hop counts of the current one
// stay on the stack (a strip's East neighbour is read twice). Each
// East and North pair's hop count is credited to the parent and to
// every sibling holding both ends.
func Analyze(m *Mapping, rects []alloc.Rect) (Report, error) {
	for _, rect := range rects {
		if _, err := vtopo.NewSubgrid(m.Grid, rect); err != nil {
			return Report{}, err
		}
	}
	rep := Report{Name: m.Name}
	if len(rects) > 0 {
		rep.SiblingAvg = make([]float64, len(rects)) // hop sums until the end
		rep.SiblingMax = make([]int, len(rects))
	}
	var nodes [2][analyzeStrip + 1]torus.Coord
	var hops [2][analyzeStrip]int // East pairs of row y, North pairs from row y-1
	px, py, total := m.Grid.Px, m.Grid.Py, 0
	for x0 := 0; x0 < px; x0 += analyzeStrip {
		w, edge := min(analyzeStrip, px-x0), min(analyzeStrip+1, px-x0)
		for y := 0; y < py; y++ {
			cur, prev := &nodes[y%2], &nodes[1-y%2]
			east, north := hops[0][:edge-1], hops[1][:min(y, 1)*w] // no North pairs into row 0
			for i := range cur[:edge] {
				cur[i] = m.NodeOf(y*px + x0 + i)
				if i > 0 {
					east[i-1] = m.Torus.Hops(cur[i-1], cur[i])
				}
				if i < len(north) {
					north[i] = m.Torus.Hops(prev[i], cur[i])
				}
			}
			total += credit(&rep.ParentMax, east, x0, 0, px) + credit(&rep.ParentMax, north, x0, 0, px)
			for i, rc := range rects {
				if rc.Y <= y && y < rc.Y+rc.H {
					rep.SiblingAvg[i] += float64(credit(&rep.SiblingMax[i], east, x0, rc.X, rc.X+rc.W-1))
				}
				if rc.Y < y && y < rc.Y+rc.H {
					rep.SiblingAvg[i] += float64(credit(&rep.SiblingMax[i], north, x0, rc.X, rc.X+rc.W))
				}
			}
		}
	}
	count := (px-1)*py + px*(py-1)
	rep.ParentAvg = mean(total, count)
	for i, rc := range rects {
		sum, n := int(rep.SiblingAvg[i]), (rc.W-1)*rc.H+rc.W*(rc.H-1)
		rep.SiblingAvg[i] = mean(sum, n)
		total += sum
		count += n
	}
	rep.OverallAvg, rep.OverallPairs = mean(total, count), count
	return rep, nil
}

// analyzeStrip is the widest column strip Analyze keeps on the stack.
const analyzeStrip = 64

// credit returns the summed hop count of the columns from..to-1 of
// hops, which starts at column x0, and raises *peak to their maximum.
func credit(peak *int, hops []int, x0, from, to int) int {
	lo := min(max(from-x0, 0), len(hops))
	sum, top := 0, *peak
	for _, h := range hops[lo:max(lo, min(to-x0, len(hops)))] {
		sum += h
		top = max(top, h)
	}
	*peak = top
	return sum
}

// mean returns total/count, 0 for an empty count.
func mean(total, count int) float64 {
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

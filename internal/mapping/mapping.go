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

	"nestwrf/internal/alloc"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// Mapping assigns every rank of a 2D process grid to a torus node.
type Mapping struct {
	Grid   vtopo.Grid
	Torus  torus.Torus
	Name   string
	nodeOf []torus.Coord
	// key identifies the mapping's content exactly: every constructor is
	// deterministic in its parameters, so (constructor, parameters) pins
	// nodeOf. Used by the model layer's phase-cost memoization.
	key string
}

// Key returns a string that uniquely identifies the rank-to-node
// assignment: two Mappings with equal keys are guaranteed to have
// identical nodeOf tables (constructors are deterministic in the
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
)

// NodeOf returns the torus coordinate of rank r.
func (m *Mapping) NodeOf(r int) torus.Coord { return m.nodeOf[r] }

// Hops returns the torus hop distance between two ranks.
func (m *Mapping) Hops(a, b int) int {
	return m.Torus.Hops(m.nodeOf[a], m.nodeOf[b])
}

// Validate checks that the mapping is a bijection between ranks and
// torus nodes.
func (m *Mapping) Validate() error {
	if len(m.nodeOf) != m.Grid.Size() {
		return fmt.Errorf("mapping %q: %d entries for %d ranks", m.Name, len(m.nodeOf), m.Grid.Size())
	}
	seen := make(map[torus.Coord]int, len(m.nodeOf))
	for r, c := range m.nodeOf {
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
	if g.Size() != t.Nodes() {
		return fmt.Errorf("%w: %d ranks, %d nodes", ErrSizeMismatch, g.Size(), t.Nodes())
	}
	return nil
}

// Sequential is the topology-oblivious default placement of Fig. 5(b):
// ranks in increasing order fill torus nodes in increasing x, then y,
// then z order.
func Sequential(g vtopo.Grid, t torus.Torus) (*Mapping, error) {
	if err := check(g, t); err != nil {
		return nil, err
	}
	m := &Mapping{Grid: g, Torus: t, Name: "sequential", nodeOf: make([]torus.Coord, g.Size()), key: baseKey("sequential", g, t)}
	for r := range m.nodeOf {
		m.nodeOf[r] = t.CoordOf(r)
	}
	return m, nil
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
	m := &Mapping{Grid: g, Torus: t, Name: "txyz", nodeOf: make([]torus.Coord, g.Size()),
		key: fmt.Sprintf("%s|cores=%d", baseKey("txyz", g, t), coresPerNode)}
	for r := range m.nodeOf {
		slot := r % coresPerNode
		c := reduced.CoordOf(r / coresPerNode)
		m.nodeOf[r] = torus.Coord{X: c.X, Y: c.Y, Z: c.Z*coresPerNode + slot}
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
	m := &Mapping{Grid: g, Torus: t, Name: "multilevel", nodeOf: make([]torus.Coord, g.Size()), key: baseKey("multilevel", g, t)}
	for r := range m.nodeOf {
		x, y := g.Coord(r)
		sx, lx := x/t.X, x%t.X
		if sx%2 == 1 { // fold back, like curling the rectangle over
			lx = t.X - 1 - lx
		}
		sy, ly := y/t.Y, y%t.Y
		if sy%2 == 1 {
			ly = t.Y - 1 - ly
		}
		m.nodeOf[r] = torus.Coord{X: lx, Y: ly, Z: sx + fx*sy}
	}
	return m, nil
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
	m := &Mapping{Grid: g, Torus: t, Name: "partition", nodeOf: make([]torus.Coord, g.Size()), key: key}

	if fx, _, err := foldParams(g, t); err == nil {
		// Foldable: fold like MultiLevel, but when every partition aligns
		// to stripe boundaries, anchor the stripe-reversal parity per
		// partition (each sibling folds independently, exactly Fig. 6(a)).
		// Per-partition parity is only injective when no stripe is shared
		// between partitions, hence the alignment requirement; otherwise
		// the global fold is used, which still gives every partition
		// 1-hop internal neighbours.
		aligned := true
		for _, rect := range rects {
			if rect.X%t.X != 0 || rect.W%t.X != 0 || rect.Y%t.Y != 0 || rect.H%t.Y != 0 {
				aligned = false
				break
			}
		}
		owner := make([]int, g.Size())
		if aligned {
			for pi, rect := range rects {
				for y := rect.Y; y < rect.Y+rect.H; y++ {
					for x := rect.X; x < rect.X+rect.W; x++ {
						owner[g.Rank(x, y)] = pi
					}
				}
			}
		}
		for r := range m.nodeOf {
			x, y := g.Coord(r)
			pi := 0
			if aligned {
				pi = owner[r]
			}
			sx, lx := x/t.X, x%t.X
			if (sx+pi)%2 == 1 {
				lx = t.X - 1 - lx
			}
			sy, ly := y/t.Y, y%t.Y
			if (sy+pi)%2 == 1 {
				ly = t.Y - 1 - ly
			}
			m.nodeOf[r] = torus.Coord{X: lx, Y: ly, Z: sx + fx*sy}
		}
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
			m.nodeOf[sg.GlobalRank(l)] = serpentineCoord(t, offset+i)
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
// partitions given by rects.
func Analyze(m *Mapping, rects []alloc.Rect) (Report, error) {
	rep := Report{Name: m.Name}
	total, count, max := m.haloHops(alloc.Rect{W: m.Grid.Px, H: m.Grid.Py})
	rep.ParentAvg, rep.ParentMax = mean(total, count), max
	if len(rects) > 0 {
		rep.SiblingAvg = make([]float64, len(rects))
		rep.SiblingMax = make([]int, len(rects))
	}
	for i, rect := range rects {
		if _, err := vtopo.NewSubgrid(m.Grid, rect); err != nil {
			return Report{}, err
		}
		sum, n, max := m.haloHops(rect)
		rep.SiblingAvg[i], rep.SiblingMax[i] = mean(sum, n), max
		total += sum
		count += n
	}
	rep.OverallAvg = mean(total, count)
	rep.OverallPairs = count
	return rep, nil
}

// haloHops walks the rows of rect once and returns the summed and
// maximal torus hop distance over its adjacent rank pairs (each rank
// with its East and North neighbour inside rect) and their number.
func (m *Mapping) haloHops(rect alloc.Rect) (sum, pairs, max int) {
	note := func(a, b torus.Coord) {
		h := m.Torus.Hops(a, b)
		sum += h
		pairs++
		if h > max {
			max = h
		}
	}
	for y := rect.Y; y < rect.Y+rect.H; y++ {
		for x := rect.X; x < rect.X+rect.W; x++ {
			r := m.Grid.Rank(x, y)
			if x+1 < rect.X+rect.W {
				note(m.nodeOf[r], m.nodeOf[r+1])
			}
			if y+1 < rect.Y+rect.H {
				note(m.nodeOf[r], m.nodeOf[r+m.Grid.Px])
			}
		}
	}
	return sum, pairs, max
}

// mean returns total/count, 0 for an empty count.
func mean(total, count int) float64 {
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// Package alloc implements the processor-allocation strategies of
// Malakar et al. (Section 3.2). The virtual Px × Py processor grid is
// partitioned into k disjoint rectangular sub-grids, one per nested
// simulation, with areas proportional to the siblings' predicted
// execution times so that all siblings finish their r sub-steps
// together.
//
// Three strategies are provided:
//
//   - Partition: the paper's Algorithm 1 — a Huffman tree over the
//     execution-time ratios turned into a balanced split-tree by
//     recursive bisection along the longer grid dimension, keeping
//     partitions as square-like as possible.
//   - NaiveStrips: the baseline of Section 4.6 — consecutive
//     rectangular strips proportional to the given weights (the paper
//     uses the siblings' total point counts).
//   - EqualSplit: equal-width strips ignoring weights.
package alloc

import (
	"errors"
	"fmt"
	"math"

	"nestwrf/internal/huffman"
)

// Rect is a rectangular region [X, X+W) × [Y, Y+H) of the virtual
// processor grid.
type Rect struct {
	X, Y, W, H int
}

// Area returns the number of processors in r.
func (r Rect) Area() int { return r.W * r.H }

// Squareness returns min(W,H)/max(W,H) in (0, 1]; 1 is a perfect
// square. Algorithm 1 splits along the longer dimension precisely to
// maximize this.
func (r Rect) Squareness() float64 {
	if r.W == 0 || r.H == 0 {
		return 0
	}
	if r.W < r.H {
		return float64(r.W) / float64(r.H)
	}
	return float64(r.H) / float64(r.W)
}

// Overlaps reports whether r and s share any processor.
func (r Rect) Overlaps(s Rect) bool {
	return r.X < s.X+s.W && s.X < r.X+r.W && r.Y < s.Y+s.H && s.Y < r.Y+r.H
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%dx%d at (%d,%d)]", r.W, r.H, r.X, r.Y)
}

// Errors returned by the allocation strategies.
var (
	ErrNoDomains      = errors.New("alloc: no domains")
	ErrBadGrid        = errors.New("alloc: processor grid dimensions must be positive")
	ErrTooManyDomains = errors.New("alloc: more domains than processors")
	ErrBadWeight      = errors.New("alloc: weights must be positive and finite")
	ErrInfeasible     = errors.New("alloc: grid cannot be split for these domains")
)

func validate(weights []float64, px, py int) error {
	if len(weights) == 0 {
		return ErrNoDomains
	}
	if px <= 0 || py <= 0 {
		return ErrBadGrid
	}
	if len(weights) > px*py {
		return fmt.Errorf("%w: %d domains on %dx%d grid", ErrTooManyDomains, len(weights), px, py)
	}
	// !(w > 0) also catches NaN, which every comparison rejects; a sum
	// of finite weights that overflows would make every share 0 or NaN.
	var sum float64
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("%w: weight %g at index %d", ErrBadWeight, w, i)
		}
		sum += w
	}
	if math.IsInf(sum, 1) {
		return fmt.Errorf("%w: weights sum to %g", ErrBadWeight, sum)
	}
	return nil
}

// Partition implements Algorithm 1 of the paper. It divides the
// px × py virtual processor grid into one rectangle per weight, with
// rectangle areas approximately proportional to the weights (predicted
// execution-time ratios) and each rectangle as square-like as possible.
// The i-th returned rectangle belongs to the i-th weight.
func Partition(weights []float64, px, py int) ([]Rect, error) {
	if err := validate(weights, px, py); err != nil {
		return nil, err
	}
	root, err := huffman.Build(weights)
	if err != nil {
		return nil, err
	}
	out := make([]Rect, len(weights))
	if err := split(root, Rect{0, 0, px, py}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PartitionShorterFirst is the strawman of the paper's Fig. 4(b): the
// same Huffman-driven recursive bisection as Partition, but always
// splitting along the *shorter* grid dimension, which produces
// elongated rectangles with imbalanced X/Y communication volumes. It
// exists for the Fig. 4 comparison only.
func PartitionShorterFirst(weights []float64, px, py int) ([]Rect, error) {
	if err := validate(weights, px, py); err != nil {
		return nil, err
	}
	root, err := huffman.Build(weights)
	if err != nil {
		return nil, err
	}
	out := make([]Rect, len(weights))
	if err := splitDim(root, Rect{0, 0, px, py}, out, false); err != nil {
		return nil, err
	}
	return out, nil
}

// split recursively bisects rect along its longer dimension in the
// ratio of the left and right subtree weights, assigning leaf
// rectangles into out (indexed by domain). It mirrors lines 2-18 of
// Algorithm 1; the BFS traversal of the paper visits nodes in the same
// parent-before-child order as this recursion.
func split(n *huffman.Node, rect Rect, out []Rect) error {
	return splitDim(n, rect, out, true)
}

// splitDim implements split with a selectable dimension preference:
// longer=true is Algorithm 1; longer=false is the Fig. 4(b) strawman.
func splitDim(n *huffman.Node, rect Rect, out []Rect, longer bool) error {
	if n.Leaf() {
		out[n.Index] = rect
		return nil
	}
	wl := huffman.SubtreeWeight(n.Left)
	wr := huffman.SubtreeWeight(n.Right)
	nl := len(huffman.Leaves(n.Left))
	nr := len(huffman.Leaves(n.Right))

	// Split the preferred dimension (Algorithm 1 splits the longer one,
	// ties split x, so the resulting rectangles stay square-like —
	// Fig. 4 of the paper). Each side must keep enough width for its
	// leaves to fit one processor apiece given the unchanged other
	// dimension. If the preferred dimension cannot accommodate the
	// leaves, the other dimension is used.
	splitX := rect.W >= rect.H
	if !longer {
		splitX = rect.W < rect.H
	}
	if splitX {
		if _, err := divide(rect.W, wl, wr, ceilDiv(nl, rect.H), ceilDiv(nr, rect.H)); err != nil {
			splitX = false
		}
	} else {
		if _, err := divide(rect.H, wl, wr, ceilDiv(nl, rect.W), ceilDiv(nr, rect.W)); err != nil {
			splitX = true
		}
	}
	if splitX {
		pl, err := divide(rect.W, wl, wr, ceilDiv(nl, rect.H), ceilDiv(nr, rect.H))
		if err != nil {
			return fmt.Errorf("%w: %dx%d into %d+%d leaves", ErrInfeasible, rect.W, rect.H, nl, nr)
		}
		left := Rect{rect.X, rect.Y, pl, rect.H}
		right := Rect{rect.X + pl, rect.Y, rect.W - pl, rect.H}
		if err := splitDim(n.Left, left, out, longer); err != nil {
			return err
		}
		return splitDim(n.Right, right, out, longer)
	}
	pl, err := divide(rect.H, wl, wr, ceilDiv(nl, rect.W), ceilDiv(nr, rect.W))
	if err != nil {
		return fmt.Errorf("%w: %dx%d into %d+%d leaves", ErrInfeasible, rect.W, rect.H, nl, nr)
	}
	left := Rect{rect.X, rect.Y, rect.W, pl}
	right := Rect{rect.X, rect.Y + pl, rect.W, rect.H - pl}
	if err := splitDim(n.Left, left, out, longer); err != nil {
		return err
	}
	return splitDim(n.Right, right, out, longer)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// divide splits length p into (pl, p-pl) in the ratio wl:wr, keeping at
// least minL on the left and minR on the right so that every leaf can
// still receive a nonempty rectangle.
func divide(p int, wl, wr float64, minL, minR int) (int, error) {
	if minL+minR > p {
		return 0, ErrInfeasible
	}
	pl := int(float64(p)*wl/(wl+wr) + 0.5)
	if pl < minL {
		pl = minL
	}
	if p-pl < minR {
		pl = p - minR
	}
	return pl, nil
}

// NaiveStrips is the baseline allocation of Section 4.6: the processor
// grid is cut into consecutive strips along its longer dimension with
// widths proportional to the weights (the paper's naive policy weighs
// by the siblings' total point counts).
func NaiveStrips(weights []float64, px, py int) ([]Rect, error) {
	if err := validate(weights, px, py); err != nil {
		return nil, err
	}
	k := len(weights)
	long := px
	if py > px {
		long = py
	}
	widths, err := apportion(weights, long)
	if err != nil {
		return nil, err
	}
	out := make([]Rect, k)
	pos := 0
	for i, w := range widths {
		if px >= py {
			out[i] = Rect{pos, 0, w, py}
		} else {
			out[i] = Rect{0, pos, px, w}
		}
		pos += w
	}
	return out, nil
}

// EqualSplit divides the grid into k equal-width strips along the
// longer dimension, the "simple processor allocation strategy" the
// paper dismisses for causing load imbalance.
func EqualSplit(k, px, py int) ([]Rect, error) {
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 1
	}
	return NaiveStrips(weights, px, py)
}

// apportion distributes total units among weights using the
// largest-remainder method, guaranteeing every entry at least one unit.
func apportion(weights []float64, total int) ([]int, error) {
	k := len(weights)
	if total < k {
		return nil, fmt.Errorf("%w: %d strips from %d units", ErrInfeasible, k, total)
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]int, k)
	rem := make([]float64, k)
	used := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		out[i] = int(exact)
		if out[i] < 1 {
			out[i] = 1
		}
		rem[i] = exact - float64(out[i])
		used += out[i]
	}
	// Distribute leftovers (or claw back overshoot) by largest remainder.
	for used < total {
		best := -1
		for i := range rem {
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		out[best]++
		rem[best] -= 1
		used++
	}
	for used > total {
		best := -1
		for i := range rem {
			if out[i] <= 1 {
				continue
			}
			if best < 0 || rem[i] < rem[best] {
				best = i
			}
		}
		if best < 0 {
			return nil, ErrInfeasible
		}
		out[best]--
		rem[best] += 1
		used--
	}
	return out, nil
}

// Validate checks that rects exactly tile the px × py grid with no
// overlaps and no empty rectangles. It returns the first violation.
func Validate(rects []Rect, px, py int) error {
	area := 0
	for i, r := range rects {
		if r.W <= 0 || r.H <= 0 {
			return fmt.Errorf("alloc: rectangle %d is empty: %v", i, r)
		}
		if r.X < 0 || r.Y < 0 || r.X+r.W > px || r.Y+r.H > py {
			return fmt.Errorf("alloc: rectangle %d out of grid bounds: %v", i, r)
		}
		area += r.Area()
		for j := i + 1; j < len(rects); j++ {
			if r.Overlaps(rects[j]) {
				return fmt.Errorf("alloc: rectangles %d and %d overlap: %v, %v", i, j, r, rects[j])
			}
		}
	}
	if area != px*py {
		return fmt.Errorf("alloc: rectangles cover %d of %d processors", area, px*py)
	}
	return nil
}

// ProportionalityError returns the maximum relative deviation between a
// rectangle's share of the grid area and its weight's share of the
// total weight. Zero means perfectly proportional allocation.
func ProportionalityError(rects []Rect, weights []float64) float64 {
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	total := 0
	for _, r := range rects {
		total += r.Area()
	}
	var worst float64
	for i, r := range rects {
		want := weights[i] / wsum
		got := float64(r.Area()) / float64(total)
		dev := (got - want) / want
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}

// Package huffman builds the weight-balanced binary trees used by the
// processor-allocation algorithm of Malakar et al. (Section 3.2,
// Algorithm 1). The Huffman construction repeatedly merges the two
// lightest subtrees, so at every internal node the left and right
// children are fairly well balanced in total weight — exactly the
// property the recursive-bisection partitioner relies on.
package huffman

import (
	"container/heap"
	"errors"
	"fmt"
)

// Node is a node of a Huffman tree. Leaves carry the index of the item
// they represent (e.g. a nested-simulation domain); internal nodes have
// exactly two children. Weight is the item weight for a leaf and the
// sum of the children's weights for an internal node.
type Node struct {
	Weight      float64
	Index       int // item index for leaves; -1 for internal nodes
	Left, Right *Node
	seq         int // tie-break sequence for deterministic construction
}

// Leaf reports whether n is a leaf node.
func (n *Node) Leaf() bool { return n.Left == nil && n.Right == nil }

// ErrNoWeights is returned by Build when no weights are supplied.
var ErrNoWeights = errors.New("huffman: no weights")

// Build constructs a Huffman tree over the given non-negative weights.
// Leaf i corresponds to weights[i]. A single weight yields a bare leaf.
// Construction is deterministic: ties are broken by insertion order.
func Build(weights []float64) (*Node, error) {
	if len(weights) == 0 {
		return nil, ErrNoWeights
	}
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("huffman: negative weight %g at index %d", w, i)
		}
	}
	h := &nodeHeap{}
	heap.Init(h)
	seq := 0
	for i, w := range weights {
		heap.Push(h, &Node{Weight: w, Index: i, seq: seq})
		seq++
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*Node)
		b := heap.Pop(h).(*Node)
		heap.Push(h, &Node{
			Weight: a.Weight + b.Weight,
			Index:  -1,
			Left:   a,
			Right:  b,
			seq:    seq,
		})
		seq++
	}
	return heap.Pop(h).(*Node), nil
}

// nodeHeap is a min-heap of nodes ordered by (weight, seq).
type nodeHeap []*Node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].Weight != h[j].Weight {
		return h[i].Weight < h[j].Weight
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*Node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Leaves returns the leaves of the subtree rooted at n in left-to-right
// order.
func Leaves(n *Node) []*Node {
	if n == nil {
		return nil
	}
	if n.Leaf() {
		return []*Node{n}
	}
	return append(Leaves(n.Left), Leaves(n.Right)...)
}

// SubtreeWeight returns the total leaf weight of the subtree rooted at
// n (which equals n.Weight by construction; recomputed here for
// validation).
func SubtreeWeight(n *Node) float64 {
	if n == nil {
		return 0
	}
	if n.Leaf() {
		return n.Weight
	}
	return SubtreeWeight(n.Left) + SubtreeWeight(n.Right)
}

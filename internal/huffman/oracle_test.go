package huffman

// Tree read-outs with no production caller (the allocator walks the
// tree recursively through Left/Right): the tests check Build's shape
// and optimality through them.

// BFS returns the internal nodes of the tree in breadth-first order,
// the traversal order used by Algorithm 1 of the paper.
func BFS(root *Node) []*Node {
	if root == nil {
		return nil
	}
	var internal []*Node
	queue := []*Node{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.Leaf() {
			continue
		}
		internal = append(internal, n)
		queue = append(queue, n.Left, n.Right)
	}
	return internal
}

// LeafIndices returns the item indices of the leaves of the subtree
// rooted at n in left-to-right order.
func LeafIndices(n *Node) []int {
	leaves := Leaves(n)
	idx := make([]int, len(leaves))
	for i, l := range leaves {
		idx[i] = l.Index
	}
	return idx
}

// Depth returns the height of the tree (a bare leaf has depth 0).
func Depth(n *Node) int {
	if n == nil || n.Leaf() {
		return 0
	}
	l, r := Depth(n.Left), Depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// WeightedPathLength returns the sum over leaves of weight × depth, the
// quantity Huffman trees minimize.
func WeightedPathLength(root *Node) float64 {
	var walk func(n *Node, d int) float64
	walk = func(n *Node, d int) float64 {
		if n == nil {
			return 0
		}
		if n.Leaf() {
			return n.Weight * float64(d)
		}
		return walk(n.Left, d+1) + walk(n.Right, d+1)
	}
	return walk(root, 0)
}

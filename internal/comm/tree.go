// Package comm compiles collective communication patterns into fabric
// programs (per-PE processor ops and router configuration lists).
//
// Its centrepiece is a single compiler from pre-order labelled reduction
// trees to fabric programs. The paper observes (§5.5) that the pre-order
// tree formulation "generalizes every algorithm we have presented so far":
// Star is a star graph, Chain a path, Tree a binomial tree, Two-Phase a
// two-level chain-of-chains, and Auto-Gen an arbitrary optimised tree. All
// five therefore share one code path here, and broadcast, AllReduce and the
// 2D mappings (X-Y, Snake, the centre root) are built on top of it.
package comm

import "fmt"

// Tree is a reduction tree over path indices 0..P-1 in pre-order layout:
// the root is index 0 and every subtree occupies a contiguous index range.
// Parent[0] must be -1. A vertex receives from its children in increasing
// index order; edges never cross (nesting is allowed). These are exactly
// the constraints of the paper's Auto-Gen execution model (§5.5, Figure 6).
type Tree struct {
	Parent []int
}

// Len returns the number of vertices.
func (t Tree) Len() int { return len(t.Parent) }

// Children returns, for each vertex, its children in increasing order:
// they are appended in vertex order.
func (t Tree) Children() [][]int {
	ch := make([][]int, len(t.Parent))
	for v := 1; v < len(t.Parent); v++ {
		p := t.Parent[v]
		ch[p] = append(ch[p], v)
	}
	return ch
}

// Depths returns the depth of each vertex (root = 0).
func (t Tree) Depths() []int {
	d := make([]int, len(t.Parent))
	for v := 1; v < len(t.Parent); v++ {
		d[v] = d[t.Parent[v]] + 1
	}
	return d
}

// Depth returns the tree height: the maximum vertex depth.
func (t Tree) Depth() int {
	max := 0
	for _, d := range t.Depths() {
		if d > max {
			max = d
		}
	}
	return max
}

// subtreeSizes computes the size of each subtree.
func (t Tree) subtreeSizes() []int {
	size := make([]int, len(t.Parent))
	for v := len(t.Parent) - 1; v >= 0; v-- {
		size[v]++
		if p := t.Parent[v]; p >= 0 {
			size[p] += size[v]
		}
	}
	return size
}

// Validate checks the pre-order property: for every vertex, the children
// partition the vertex's subtree interval contiguously, i.e. child k+1
// starts exactly where child k's subtree ends. Parents must precede
// children (Parent[v] < v) and Parent[0] must be -1.
func (t Tree) Validate() error {
	_, err := t.validate()
	return err
}

// validate is Validate, returning the children it checked.
func (t Tree) validate() ([][]int, error) {
	if len(t.Parent) == 0 {
		return nil, fmt.Errorf("comm: empty tree")
	}
	if t.Parent[0] != -1 {
		return nil, fmt.Errorf("comm: root parent is %d, want -1", t.Parent[0])
	}
	for v := 1; v < len(t.Parent); v++ {
		if t.Parent[v] < 0 || t.Parent[v] >= v {
			return nil, fmt.Errorf("comm: vertex %d has parent %d (want 0..%d)", v, t.Parent[v], v-1)
		}
	}
	size, children := t.subtreeSizes(), t.Children()
	for v, ch := range children {
		next := v + 1
		for _, c := range ch {
			if c != next {
				return nil, fmt.Errorf("comm: vertex %d: child %d breaks pre-order (expected %d)", v, c, next)
			}
			next += size[c]
		}
		if next != v+size[v] {
			return nil, fmt.Errorf("comm: vertex %d: children cover %d vertices, subtree has %d", v, next-v-1, size[v]-1)
		}
	}
	return children, nil
}

// Star returns the tree in which every PE sends directly to the root
// (§5.1; used by Rocki et al. for CS-1 stencils).
func Star(p int) Tree {
	parent := make([]int, p)
	parent[0] = -1
	return Tree{Parent: parent}
}

// Chain returns the path tree: every PE sends to its left neighbour,
// fully pipelined (§5.2; the pattern used by the vendor's collectives
// library and matrix-multiply kernel).
func Chain(p int) Tree {
	parent := make([]int, p)
	parent[0] = -1
	for v := 1; v < p; v++ {
		parent[v] = v - 1
	}
	return Tree{Parent: parent}
}

// Binomial returns the binomial tree of the paper's Tree Reduce (§5.3):
// in round r, every PE whose index has lowest set bit 2^(r-1) sends to the
// PE 2^(r-1) to its left. Works for any P, not just powers of two.
func Binomial(p int) Tree {
	parent := make([]int, p)
	parent[0] = -1
	for v := 1; v < p; v++ {
		parent[v] = v - (v & -v)
	}
	return Tree{Parent: parent}
}

// TwoPhase returns the paper's Two-Phase tree (§5.4) with group size s:
// chain reduction inside groups of s consecutive PEs, groups assigned
// from the right end (so a partial group, if any, sits at the root), and a
// chain of the group leaders. Pass s <= 0 to use the paper's choice
// s = ceil(sqrt(P)).
func TwoPhase(p, s int) Tree {
	if s <= 0 {
		s = isqrtCeil(p)
	}
	if s < 1 {
		s = 1
	}
	parent := make([]int, p)
	parent[0] = -1
	// Groups from the end: leader positions are P-kS for k = 1.. and the
	// residual group starts at 0.
	leaders := []int{0}
	first := p % s
	if first == 0 {
		first = s
	}
	for l := first; l < p; l += s {
		leaders = append(leaders, l)
	}
	isLeader := make(map[int]bool, len(leaders))
	for _, l := range leaders {
		isLeader[l] = true
	}
	for k, l := range leaders {
		if k > 0 {
			parent[l] = leaders[k-1]
		}
	}
	for v := 1; v < p; v++ {
		if !isLeader[v] {
			parent[v] = v - 1
		}
	}
	return Tree{Parent: parent}
}

// isqrtCeil returns ceil(sqrt(n)) for n >= 0.
func isqrtCeil(n int) int {
	if n <= 1 {
		return n
	}
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// Single returns the trivial one-vertex tree (P = 1).
func Single() Tree { return Tree{Parent: []int{-1}} }

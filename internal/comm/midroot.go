package comm

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// Middle-root AllReduce: §6.1 notes the naive Reduce-then-Broadcast "could
// be further optimized by choosing an optimal root to reduce to... This is
// done in optimized stencil implementations [25], in which they first
// reduce to the middle PE and broadcast from there". This file implements
// that optimisation: the row is split at the middle PE, both halves reduce
// into it concurrently on disjoint color pairs, and the result floods out
// in both directions on a single color (the router multicasts Ramp→{E,W}).
// Distance and depth terms are roughly halved at the cost of 2B root
// contention. The centre-rooted 2D AllReduce applies the same split twice:
// to every row, then to the middle column; the middle-root AllGather splits
// a Gather.

// reversePath returns the path walked from its far end back to the start.
func reversePath(p mesh.Path) mesh.Path {
	out := make(mesh.Path, len(p))
	for i := range p {
		out[i] = p[len(p)-1-i]
	}
	return out
}

// BuildReduceMidRoot compiles the two half-reduces of a middle-root schedule
// along a path of p PEs into its middle PE, path index p/2: westTree reduces
// the ⌊p/2⌋+1 PEs from the middle back to the start on colors[0], eastTree
// the ⌈p/2⌉ from the middle to the end on colors[1], each indexed by
// distance from the middle (any of the §5 patterns, or a pair searched
// together). The middle PE takes the west half's transfers first.
func BuildReduceMidRoot(spec *fabric.Spec, path mesh.Path, b int, westTree, eastTree Tree, colors [2]ColorPair, op fabric.ReduceOp) error {
	p := len(path)
	if p < 1 {
		return fmt.Errorf("comm: empty path")
	}
	if err := path.Validate(); err != nil {
		return err
	}
	mid := p / 2
	if mid > 0 {
		west := reversePath(path[:mid+1])
		if err := BuildTreeReduce(spec, west, westTree, b, colors[0], op); err != nil {
			return fmt.Errorf("comm: west half: %w", err)
		}
	}
	// The middle PE's accumulator is shared, so its own contribution is
	// counted exactly once even though it roots both trees.
	if mid < p-1 {
		if err := BuildTreeReduce(spec, path[mid:], eastTree, b, colors[1], op); err != nil {
			return fmt.Errorf("comm: east half: %w", err)
		}
	}
	return nil
}

// BuildAllReduceMidRoot compiles a middle-root AllReduce along row 0 of p
// PEs: the halves reduce into PE p/2 on ColorPairs {0,1} and {2,3}, and the
// result floods out both ways on ColorBcast2.
func BuildAllReduceMidRoot(spec *fabric.Spec, p, b int, westTree, eastTree Tree, op fabric.ReduceOp) error {
	if err := BuildReduceMidRoot(spec, mesh.Row(0, 0, p), b, westTree, eastTree, rowHalves, op); err != nil {
		return err
	}
	return BuildBroadcast2D(spec, p, 1, mesh.Coord{X: p / 2}, b, ColorBcast2)
}

// BuildAllGatherMidRoot compiles the middle-root AllGather along row 0 of p
// PEs, each holding its chunk at its Chunks offset: both halves gather into PE
// p/2 — the west half on ColorTreeA, the east half on ColorTreeB, the middle
// PE taking the west half's chunks first — and the assembled vector floods
// out both ways on ColorBcast2, the way the middle-root AllReduce floods.
func BuildAllGatherMidRoot(spec *fabric.Spec, p, b int) error {
	if p < 2 {
		return fmt.Errorf("comm: allgather needs at least 2 PEs")
	}
	if b < p {
		return fmt.Errorf("comm: allgather needs B >= P for non-empty chunks (B=%d, P=%d)", b, p)
	}
	path := mesh.Row(0, 0, p)
	off, sz := Chunks(p, b)
	mid := p / 2
	if mid > 0 {
		// The west half is indexed by distance from the middle, like the east.
		wOff, wSz := slices.Clone(off[:mid+1]), slices.Clone(sz[:mid+1])
		slices.Reverse(wOff)
		slices.Reverse(wSz)
		gatherChunks(spec, reversePath(path[:mid+1]), wOff, wSz, true, ColorTreeA)
	}
	if mid < p-1 {
		gatherChunks(spec, path[mid:], off[mid:], sz[mid:], true, ColorTreeB)
	}
	return BuildBroadcast2D(spec, p, 1, mesh.Coord{X: mid}, b, ColorBcast2)
}

// BuildAllReduceCentre compiles the centre-rooted 2D AllReduce on a
// width×height grid: every row reduces into its middle PE (width/2, y) over
// the pair row, as BuildAllReduceMidRoot's halves do; the middle column
// reduces into (width/2, height/2) over the pair col, on colors the rows do
// not use; and the result floods the grid from there.
func BuildAllReduceCentre(spec *fabric.Spec, width, height, b int, row, col [2]Tree, op fabric.ReduceOp) error {
	for y := 0; y < height; y++ {
		if err := BuildReduceMidRoot(spec, mesh.Row(y, 0, width), b, row[0], row[1], rowHalves, op); err != nil {
			return fmt.Errorf("comm: row %d: %w", y, err)
		}
	}
	if err := BuildReduceMidRoot(spec, mesh.Column(width/2, 0, height), b, col[0], col[1], columnHalves, op); err != nil {
		return fmt.Errorf("comm: middle column: %w", err)
	}
	return BuildBroadcast2D(spec, width, height, mesh.Coord{X: width / 2, Y: height / 2}, b, ColorBcast2)
}

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
// on a lane of p PEs into its middle PE, path index p/2: westTree reduces the
// ⌊p/2⌋+1 PEs from the middle back to the start on colors Base and Base+1,
// eastTree the ⌈p/2⌉ from the middle to the end on Base+2 and Base+3, each
// indexed by distance from the middle (any of the §5 patterns, or a pair
// searched together). The middle PE takes the west half's transfers first.
func BuildReduceMidRoot(spec *fabric.Spec, lane Lane, westTree, eastTree Tree, op fabric.ReduceOp) error {
	p := len(lane.Path)
	if p < 1 {
		return fmt.Errorf("comm: empty path")
	}
	if err := lane.validate(1); err != nil {
		return err
	}
	west, east := lane.halves()
	if len(west.Path) > 1 {
		if err := BuildTreeReduce(spec, west, westTree, op); err != nil {
			return fmt.Errorf("comm: west half: %w", err)
		}
	}
	// The middle PE's accumulator is shared, so its own contribution is
	// counted exactly once even though it roots both trees.
	if len(east.Path) > 1 {
		east.Base += 2
		if err := BuildTreeReduce(spec, east, eastTree, op); err != nil {
			return fmt.Errorf("comm: east half: %w", err)
		}
	}
	return nil
}

// halves splits a lane at its middle PE, path index p/2: the west half walks
// from the middle back to the start, the east half from the middle to the
// end, so both start at the middle PE.
func (l Lane) halves() (west, east Lane) {
	mid := len(l.Path) / 2
	west, east = l, l
	west.Path, east.Path = reversePath(l.Path[:mid+1]), l.Path[mid:]
	return west, east
}

// BuildAllReduceMidRoot compiles a middle-root AllReduce on a lane: the halves
// reduce into its middle PE on colors Base to Base+3, and the result floods
// out both ways on Base+4.
func BuildAllReduceMidRoot(spec *fabric.Spec, lane Lane, westTree, eastTree Tree, op fabric.ReduceOp) error {
	if err := BuildReduceMidRoot(spec, lane, westTree, eastTree, op); err != nil {
		return err
	}
	flood := lane
	flood.Base += 4
	return BuildFlood(spec, flood, len(lane.Path)/2)
}

// BuildAllGatherMidRoot compiles the middle-root AllGather on a lane of p
// PEs, each holding its chunk of the window at its offset: both halves gather
// into PE p/2 — the west half on Base, the east half on Base+1, the middle PE
// taking the west half's chunks first — and the assembled window floods out
// both ways on Base+4, the way the middle-root AllReduce floods.
func BuildAllGatherMidRoot(spec *fabric.Spec, lane Lane) error {
	p := len(lane.Path)
	if p < 2 {
		return fmt.Errorf("comm: allgather needs at least 2 PEs")
	}
	if lane.N < p {
		return fmt.Errorf("comm: allgather needs B >= P for non-empty chunks (B=%d, P=%d)", lane.N, p)
	}
	if err := lane.validate(p); err != nil {
		return err
	}
	off, sz := lane.chunks()
	mid := p / 2
	west, east := lane.halves()
	if mid > 0 {
		// The west half is indexed by distance from the middle, like the east.
		wOff, wSz := slices.Clone(off[:mid+1]), slices.Clone(sz[:mid+1])
		slices.Reverse(wOff)
		slices.Reverse(wSz)
		gatherChunks(spec, west.Path, wOff, wSz, true, lane.Base)
	}
	if mid < p-1 {
		gatherChunks(spec, east.Path, off[mid:], sz[mid:], true, lane.Base+1)
	}
	flood := lane
	flood.Base += 4
	return BuildFlood(spec, flood, mid)
}

// BuildAllReduceCentre compiles the centre-rooted 2D AllReduce on a
// width×height grid: every row reduces into its middle PE (width/2, y) over
// the pair row, as BuildAllReduceMidRoot's halves do on colors 0 to 3; the
// middle column reduces into (width/2, height/2) over the pair col, on colors
// 5 to 8, which the rows do not use; and the result floods the grid from
// there on ColorBcast2.
func BuildAllReduceCentre(spec *fabric.Spec, width, height, b int, row, col [2]Tree, op fabric.ReduceOp) error {
	for y := 0; y < height; y++ {
		if err := BuildReduceMidRoot(spec, Lane{Path: mesh.Row(y, 0, width), N: b}, row[0], row[1], op); err != nil {
			return fmt.Errorf("comm: row %d: %w", y, err)
		}
	}
	if err := BuildReduceMidRoot(spec, Lane{Path: mesh.Column(width/2, 0, height), N: b, Base: 5}, col[0], col[1], op); err != nil {
		return fmt.Errorf("comm: middle column: %w", err)
	}
	return BuildBroadcast2D(spec, width, height, mesh.Coord{X: width / 2, Y: height / 2}, b, ColorBcast2)
}

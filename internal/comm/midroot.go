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
// that optimisation two ways. The halves: the row is split at the middle PE,
// both halves reduce into it concurrently on disjoint color pairs, and the
// result floods out in both directions on a single color (the router
// multicasts Ramp→{E,W}); distance and depth terms are roughly halved at the
// cost of 2B root contention. The fold: one chain runs from the start to the
// end of the row and back into the middle PE, so the middle PE takes one
// stream, and floods from there; the chain's longer hop costs what the flood
// from the middle saves. The centre-rooted 2D AllReduce applies the halves'
// split twice: to every row, then to the middle column; the middle-root
// AllGather splits a Gather.

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

// BuildAllReduceFold compiles the fold, the middle-root AllReduce whose
// middle PE takes one stream, on a lane of p PEs with its middle PE at path
// index mid = p/2. The west half chains towards the end, 0 → … → mid−1, on
// colors Base and Base+1; PE mid−1's stream crosses the routers of mid … p−2
// to PE p−1; the east half chains back, p−1 → … → mid+1 → mid, on Base+2 and
// Base+3; and the middle PE floods the result both ways on Base+4. It is the
// end-rooted chain AllReduce folded across the middle: the crossing adds
// ⌈p/2⌉−1 hops to the chain and the flood from the middle saves as many.
func BuildAllReduceFold(spec *fabric.Spec, lane Lane, op fabric.ReduceOp) error {
	p := len(lane.Path)
	if p < 1 {
		return fmt.Errorf("comm: empty path")
	}
	if err := lane.validate(1); err != nil {
		return err
	}
	if p == 1 {
		return nil // nothing to reduce or flood
	}
	path, mid := lane.Path, p/2
	// The chain visits order[k] k-th; transfer k leaves order[k] for
	// order[k+1] on color(k): the west half's pair up to the crossing, the
	// east half's after it, alternating so that no PE receives and sends on
	// one color.
	order := make([]int, 0, p)
	for v := 0; v < mid; v++ {
		order = append(order, v)
	}
	for v := p - 1; v >= mid; v-- {
		order = append(order, v)
	}
	color := func(k int) mesh.Color {
		if k < mid {
			return lane.Base + mesh.Color(k%2)
		}
		return lane.Base + 2 + mesh.Color((k-mid)%2)
	}
	// toward is the direction from path index i one step along the chain's
	// sense s: +1 towards the end, -1 towards the start.
	toward := func(i, s int) mesh.Direction {
		if s > 0 {
			return path.TowardEnd(i)
		}
		return path.TowardStart(i)
	}
	for k, v := range order {
		o := fabric.Op{Kind: fabric.OpRecvReduceSend, Off: lane.Off, N: lane.N, Reduce: op}
		switch k {
		case 0:
			o = fabric.Op{Kind: fabric.OpSend, Color: color(0), Off: lane.Off, N: lane.N}
		case p - 1:
			o.Kind, o.Color = fabric.OpRecvReduce, color(k-1)
		default:
			o.Color, o.OutColor = color(k-1), color(k)
		}
		pe := spec.PE(path[v])
		pe.Ops = append(pe.Ops, o)
		if k == p-1 {
			continue
		}
		// Transfer k leaves v's ramp, crosses the routers strictly between v
		// and the next PE of the chain, and goes up that PE's ramp.
		to, c, s := order[k+1], color(k), 1
		if to < v {
			s = -1
		}
		pe.AddConfig(c, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(toward(v, s))})
		for i := v + s; i != to; i += s {
			spec.PE(path[i]).AddConfig(c, fabric.RouterConfig{Accept: toward(i, -s), Forward: mesh.Dirs(toward(i, s))})
		}
		spec.PE(path[to]).AddConfig(c, fabric.RouterConfig{Accept: toward(to, -s), Forward: mesh.Dirs(mesh.Ramp)})
	}
	flood := lane
	flood.Base += 4
	return BuildFlood(spec, flood, mid)
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

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
// AllGather splits a Gather, and its streamed form floods each chunk as the
// middle PE takes the next.

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
	m, err := midRootOf(lane, westTree, eastTree)
	if err != nil {
		return err
	}
	m.build(spec, op)
	return nil
}

// midRoot is a middle-root reduce's two half lanes and their trees' shapes,
// worked out once for every row of a grid.
type midRoot struct {
	west, east   Lane
	wTree, eTree *treeShape // nil for a half of one PE: the middle PE alone
}

func midRootOf(lane Lane, westTree, eastTree Tree) (*midRoot, error) {
	if len(lane.Path) < 1 {
		return nil, fmt.Errorf("comm: empty path")
	}
	if err := lane.validate(1); err != nil {
		return nil, err
	}
	m := &midRoot{}
	m.west, m.east = lane.halves()
	m.east.Base += 2
	var err error
	if len(m.west.Path) > 1 {
		if m.wTree, err = shapeOf(m.west, westTree); err != nil {
			return nil, fmt.Errorf("comm: west half: %w", err)
		}
	}
	if len(m.east.Path) > 1 {
		if m.eTree, err = shapeOf(m.east, eastTree); err != nil {
			return nil, fmt.Errorf("comm: east half: %w", err)
		}
	}
	return m, nil
}

// build compiles the two half-reduces. The middle PE's accumulator is
// shared, so its own contribution is counted exactly once even though it
// roots both trees.
func (m *midRoot) build(spec *fabric.Spec, op fabric.ReduceOp) {
	if m.wTree != nil {
		m.wTree.build(spec, m.west, op)
	}
	if m.eTree != nil {
		m.eTree.build(spec, m.east, op)
	}
}

// toRow moves the halves of a row lane to row y.
func (m *midRoot) toRow(y int) {
	for i := range m.west.Path {
		m.west.Path[i].Y = y
	}
	for i := range m.east.Path {
		m.east.Path[i].Y = y
	}
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
		spec.Append(path[v], o)
		if k == p-1 {
			continue
		}
		// Transfer k leaves v's ramp, crosses the routers strictly between v
		// and the next PE of the chain, and goes up that PE's ramp.
		to, c, s := order[k+1], color(k), 1
		if to < v {
			s = -1
		}
		spec.AddConfig(path[v], c, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(toward(v, s))})
		for i := v + s; i != to; i += s {
			spec.AddConfig(path[i], c, fabric.RouterConfig{Accept: toward(i, -s), Forward: mesh.Dirs(toward(i, s))})
		}
		spec.AddConfig(path[to], c, fabric.RouterConfig{Accept: toward(to, -s), Forward: mesh.Dirs(mesh.Ramp)})
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
	off, sz, order, err := gatherHalves(spec, lane)
	if err != nil {
		return err
	}
	ops := make([]fabric.Op, 0, len(order)-1)
	for _, v := range order[1:] {
		ops = append(ops, fabric.Op{Kind: fabric.OpRecvStore, Color: lane.halfColor(v), Off: off[v], N: sz[v]})
	}
	spec.Append(lane.Path[order[0]], ops...)
	flood := lane
	flood.Base += 4
	return BuildFlood(spec, flood, order[0])
}

// gatherHalves compiles the gather of both halves of an AllGather lane of p
// PEs into PE p/2, all but the middle PE's program: the west half on Base,
// the east half on Base+1 (halfColor). It returns the lane's chunks and the
// order the middle PE takes them in after its own, order[0]: the west half's
// nearest first, then the east half's.
func gatherHalves(spec *fabric.Spec, lane Lane) (off, sz, order []int, err error) {
	p := len(lane.Path)
	if p < 2 {
		return nil, nil, nil, fmt.Errorf("comm: allgather needs at least 2 PEs")
	}
	if lane.N < p {
		return nil, nil, nil, fmt.Errorf("comm: allgather needs B >= P for non-empty chunks (B=%d, P=%d)", lane.N, p)
	}
	if err := lane.validate(p); err != nil {
		return nil, nil, nil, err
	}
	off, sz = lane.chunks()
	mid := p / 2
	west, east := lane.halves()
	// The west half is indexed by distance from the middle, like the east.
	wOff, wSz := slices.Clone(off[:mid+1]), slices.Clone(sz[:mid+1])
	slices.Reverse(wOff)
	slices.Reverse(wSz)
	gatherChunks(spec, west.Path, wOff, wSz, true, lane.Base)
	if mid < p-1 {
		gatherChunks(spec, east.Path, off[mid:], sz[mid:], true, lane.Base+1)
	}
	order = []int{mid}
	for v := mid - 1; v >= 0; v-- {
		order = append(order, v)
	}
	for v := mid + 1; v < p; v++ {
		order = append(order, v)
	}
	return off, sz, order, nil
}

// halfColor is the color path index v's chunk gathers into the middle PE on:
// Base from the west half, Base+1 from the east.
func (l Lane) halfColor(v int) mesh.Color {
	if v > len(l.Path)/2 {
		return l.Base + 1
	}
	return l.Base
}

// BuildAllGatherStreamed compiles the streamed middle-root AllGather on a
// lane of p PEs, on BuildAllGatherMidRoot's colors: both halves gather into
// PE p/2 as there, but the middle PE floods every chunk the op after it took
// it, over one full-duplex ramp. It floods its own chunk while it takes the
// first, chunk i while it takes chunk i+1, and the last alone. Every other PE
// takes the p floods in the middle PE's order, its own chunk stored again
// unchanged: the first while it sends its chunk, in one full-duplex op, so
// that the flood never waits on a sender busy with its own chunk, and the
// others one receive each. A sender takes no second flood until its send is
// through, so its chunk and control must fit the queues of its ramp and its
// router (model.Params.StarStream).
func BuildAllGatherStreamed(spec *fabric.Spec, lane Lane) error {
	off, sz, order, err := gatherHalves(spec, lane)
	if err != nil {
		return err
	}
	mid, flood := order[0], lane.Base+4
	ops := make([]fabric.Op, 0, len(order)+len(lane.Path)) // one PE's program, while it is built
	for k, v := range order[1:] {
		u := order[k]
		ops = append(ops, fabric.Op{
			Kind: fabric.OpSendRecvStore, OutColor: flood, Off: off[u], N: sz[u],
			Color: lane.halfColor(v), Off2: off[v], N2: sz[v],
		})
	}
	last := order[len(order)-1]
	spec.Append(lane.Path[mid], append(ops, fabric.Op{Kind: fabric.OpSend, Color: flood, Off: off[last], N: sz[last]})...)
	for v, c := range lane.Path {
		if v == mid {
			continue
		}
		// gatherHalves left the sender's one send last; it takes the first
		// flood too.
		ops = append(ops[:0], spec.Program(c).Ops...)
		send := &ops[len(ops)-1]
		send.Kind, send.OutColor, send.Color = fabric.OpSendRecvStore, send.Color, flood
		send.Off2, send.N2 = off[mid], sz[mid]
		for _, u := range order[1:] {
			ops = append(ops, fabric.Op{Kind: fabric.OpRecvStore, Color: flood, Off: off[u], N: sz[u]})
		}
		spec.SetOps(c, ops)
	}
	floodRoutes(spec, lane.Path, mid, flood)
	return nil
}

// BuildAllReduceCentre compiles the centre-rooted 2D AllReduce on a
// width×height grid: every row reduces into its middle PE (width/2, y) over
// the pair row, as BuildAllReduceMidRoot's halves do on colors 0 to 3; the
// middle column reduces into (width/2, height/2) over the pair col, on colors
// 5 to 8, which the rows do not use; and the result floods the grid from
// there on ColorBcast2. Every leaf of either column half streams its row's
// last transfer up the column (streamLeaves).
func BuildAllReduceCentre(spec *fabric.Spec, width, height, b int, row, col [2]Tree, op fabric.ReduceOp) error {
	// Every row runs the same halves: one shape, moved down the grid.
	rows, err := midRootOf(Lane{Path: mesh.Row(0, 0, width), N: b}, row[0], row[1])
	if err != nil {
		return fmt.Errorf("comm: rows: %w", err)
	}
	for y := 0; y < height; y++ {
		rows.toRow(y)
		rows.build(spec, op)
	}
	column := Lane{Path: mesh.Column(width/2, 0, height), N: b, Base: 5}
	if err := BuildReduceMidRoot(spec, column, col[0], col[1], op); err != nil {
		return fmt.Errorf("comm: middle column: %w", err)
	}
	north, south := column.halves()
	streamLeaves(spec, north.Path, col[0])
	streamLeaves(spec, south.Path, col[1])
	return BuildBroadcast2D(spec, width, height, mesh.Coord{X: width / 2, Y: height / 2}, b, ColorBcast2)
}

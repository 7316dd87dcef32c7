package comm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// BuildTreeReduce compiles a pre-order tree reduction over the PEs of a
// lane into spec. Path index 0 is the reduction root. Each participating PE
// starts from the vector its run binds to it (fabric.NewBound); the tree
// combines the lane's window of it.
//
// The tree alternates between the lane's two colors Base and Base+1: a
// vertex at depth d receives its children's transfers on Base+d%2 and sends
// to its parent on Base+(d+1)%2, so the pipelined receive-reduce-send of
// inner vertices never receives and sends on the same color. Two colors per
// 1D collective matches the paper's budget (§8.2: 1D implementations use up
// to 3 colors, the third being the start trigger of the measurement
// harness).
//
// Synchronisation follows the hardware discipline of the paper's Figure 3
// and §8.2: every transfer is the window's data wavelets plus one trailing
// control wavelet; a router that routes the control advances its
// configuration for that color, so routers move from "deliver my children's
// data up the ramp" through "inject my own send" to "pass through later
// transfers" without any global coordination. Stalled wavelets wait in
// bounded queues (loose synchronisation); the pre-order layout guarantees
// the stall graph is acyclic.
func BuildTreeReduce(spec *fabric.Spec, lane Lane, tree Tree, op fabric.ReduceOp) error {
	ts, err := shapeOf(lane, tree)
	if err != nil {
		return err
	}
	ts.build(spec, lane, op)
	return nil
}

// treeShape is what a tree reduce reads of its tree, worked out once for
// every lane that runs the tree (the rows of a grid, say).
type treeShape struct {
	children [][]int
	depth    []int
	// One vertex's ops and its two colors' configurations, while they are
	// built.
	ops     []fabric.Op
	in, out [2]fabric.RouterConfig
}

// shapeOf checks a lane and a tree against each other and works out the
// tree's shape.
func shapeOf(lane Lane, tree Tree) (*treeShape, error) {
	if len(lane.Path) != tree.Len() {
		return nil, fmt.Errorf("comm: path has %d PEs, tree has %d vertices", len(lane.Path), tree.Len())
	}
	children, err := tree.validate()
	if err != nil {
		return nil, err
	}
	if err := lane.validate(1); err != nil {
		return nil, err
	}
	return &treeShape{children: children, depth: tree.Depths()}, nil
}

// build compiles the tree reduce on a lane of the shape's length.
func (ts *treeShape) build(spec *fabric.Spec, lane Lane, op fabric.ReduceOp) {
	path, off, b := lane.Path, lane.Off, lane.N
	colors := [2]mesh.Color{lane.Base, lane.Base + 1}
	p := len(path)
	for v := 0; v < p; v++ {
		c := path[v]
		colorIn := colors[ts.depth[v]%2]
		colorOut := colors[(ts.depth[v]+1)%2]
		ch := ts.children[v]

		// Processor program: receive children in order, streaming the last
		// one through to the parent (the pipelining that gives Chain its
		// B + (2T_R+2)(P-1) runtime); leaves just send.
		recv := fabric.Op{Kind: fabric.OpRecvReduce, Color: colorIn, Off: off, N: b, Reduce: op}
		ops := ts.ops[:0]
		switch {
		case v == 0: // root: receive everything, keep the result
			for range ch {
				ops = append(ops, recv)
			}
		case len(ch) == 0: // leaf
			ops = append(ops, fabric.Op{Kind: fabric.OpSend, Color: colorOut, Off: off, N: b})
		default: // inner vertex
			for range ch[:len(ch)-1] {
				ops = append(ops, recv)
			}
			ops = append(ops, fabric.Op{Kind: fabric.OpRecvReduceSend, Color: colorIn, OutColor: colorOut, Off: off, N: b, Reduce: op})
		}
		spec.Append(c, ops...)
		ts.ops = ops

		// Router configuration lists, each color's in one write. "West" is
		// towards path index 0.
		in, out := ts.in[:0], ts.out[:0]
		if len(ch) > 0 {
			in = append(in, fabric.RouterConfig{
				Accept:  path.TowardEnd(v), // children are east of v
				Forward: mesh.Dirs(mesh.Ramp),
				Times:   len(ch),
			})
		}
		if v > 0 {
			out = append(out, fabric.RouterConfig{
				Accept:  mesh.Ramp,
				Forward: mesh.Dirs(path.TowardStart(v)),
				Times:   1,
			})
		}
		if v > 0 && v < p-1 {
			// Pass-through towards the root once the vertex is done: on the
			// inbound color after its children (a leaf never uses that
			// color itself, but transfers of the same parity cross it on
			// it), on the outbound one after its own send.
			pass := fabric.RouterConfig{Accept: path.TowardEnd(v), Forward: mesh.Dirs(path.TowardStart(v))}
			in = append(in, pass)
			out = append(out, pass)
		}
		if len(in) > 0 {
			spec.AddConfig(c, colorIn, in...)
		}
		if len(out) > 0 {
			spec.AddConfig(c, colorOut, out...)
		}
	}
}

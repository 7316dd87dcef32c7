package comm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// BuildTreeReduce compiles a pre-order tree reduction over the PEs of a
// lane into spec. Path index 0 is the reduction root. Each participating PE
// must already carry its Init vector (set by the caller); the tree combines
// the lane's window of it.
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
	path, off, b := lane.Path, lane.Off, lane.N
	if len(path) != tree.Len() {
		return fmt.Errorf("comm: path has %d PEs, tree has %d vertices", len(path), tree.Len())
	}
	if err := tree.Validate(); err != nil {
		return err
	}
	if err := lane.validate(1); err != nil {
		return err
	}
	colors := [2]mesh.Color{lane.Base, lane.Base + 1}
	children := tree.Children()
	depth := tree.Depths()
	p := tree.Len()
	for v := 0; v < p; v++ {
		pe := spec.PE(path[v])
		colorIn := colors[depth[v]%2]
		colorOut := colors[(depth[v]+1)%2]
		ch := children[v]

		// Processor program: receive children in order, streaming the last
		// one through to the parent (the pipelining that gives Chain its
		// B + (2T_R+2)(P-1) runtime); leaves just send.
		switch {
		case v == 0: // root: receive everything, keep the result
			for range ch {
				pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpRecvReduce, Color: colorIn, Off: off, N: b, Reduce: op})
			}
		case len(ch) == 0: // leaf
			pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpSend, Color: colorOut, Off: off, N: b})
		default: // inner vertex
			for range ch[:len(ch)-1] {
				pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpRecvReduce, Color: colorIn, Off: off, N: b, Reduce: op})
			}
			pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpRecvReduceSend, Color: colorIn, OutColor: colorOut, Off: off, N: b, Reduce: op})
		}

		// Router configuration lists. "West" is towards path index 0.
		if len(ch) > 0 {
			pe.AddConfig(colorIn, fabric.RouterConfig{
				Accept:  path.TowardEnd(v), // children are east of v
				Forward: mesh.Dirs(mesh.Ramp),
				Times:   len(ch),
			})
			if v > 0 && v < p-1 {
				pe.AddConfig(colorIn, fabric.RouterConfig{
					Accept:  path.TowardEnd(v),
					Forward: mesh.Dirs(path.TowardStart(v)),
				})
			}
		}
		if v > 0 {
			pe.AddConfig(colorOut, fabric.RouterConfig{
				Accept:  mesh.Ramp,
				Forward: mesh.Dirs(path.TowardStart(v)),
				Times:   1,
			})
			if v < p-1 {
				pe.AddConfig(colorOut, fabric.RouterConfig{
					Accept:  path.TowardEnd(v),
					Forward: mesh.Dirs(path.TowardStart(v)),
				})
			}
		}
		// Pure pass-through on the inbound color a leaf never uses itself:
		// transfers of the same parity cross it on that color.
		if len(ch) == 0 && v > 0 && v < p-1 {
			pe.AddConfig(colorIn, fabric.RouterConfig{
				Accept:  path.TowardEnd(v),
				Forward: mesh.Dirs(path.TowardStart(v)),
			})
		}
	}
	return nil
}

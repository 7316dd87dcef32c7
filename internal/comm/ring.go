package comm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// RingMapping selects how the logical ring is laid onto the physical row
// (§6.2, Figure 7).
type RingMapping uint8

const (
	// RingSimple maps ring neighbours to row neighbours; the closing edge
	// from the rightmost PE back to the leftmost travels the whole row on
	// a dedicated color (Figure 7a).
	RingSimple RingMapping = iota
	// RingDistancePreserving zig-zags the ring (0,1,3,5,…,P-1,P-2,…,2) so
	// every logical edge spans at most two physical hops (Figure 7b).
	// Requires an even PE count.
	RingDistancePreserving
)

// String names the mapping.
func (m RingMapping) String() string {
	if m == RingDistancePreserving {
		return "distance-preserving"
	}
	return "simple"
}

// ringOrder returns the logical ring as a sequence of path indices.
func ringOrder(p int, mapping RingMapping) ([]int, error) {
	if mapping == RingSimple || p == 2 {
		order := make([]int, p)
		for i := range order {
			order[i] = i
		}
		return order, nil
	}
	if p%2 != 0 {
		return nil, fmt.Errorf("comm: distance-preserving ring needs an even PE count, got %d", p)
	}
	order := make([]int, 0, p)
	order = append(order, 0)
	for i := 1; i < p; i += 2 {
		order = append(order, i)
	}
	for i := p - 2; i >= 2; i -= 2 {
		order = append(order, i)
	}
	return order, nil
}

// ringEdgeColor assigns a color, counted from the lane's Base, to logical
// edge k (from ring position k to k+1). Consecutive edges must differ (a PE
// receives and sends simultaneously); the simple mapping's closing edge gets
// a dedicated color because it crosses every router. Four colors suffice for
// either mapping, within the paper's budget.
func ringEdgeColor(k, p int, mapping RingMapping) mesh.Color {
	if mapping == RingSimple || p == 2 {
		if k == p-1 {
			return 2 // the long wrap-around edge
		}
		return mesh.Color(k % 2)
	}
	// Distance-preserving: eastbound half (including 0→1) on {0,1},
	// westbound half (including the 2→0 wrap) on {2,3}.
	if k < p/2 {
		return mesh.Color(k % 2)
	}
	return mesh.Color(2 + k%2)
}

// addRingEdge installs the static routing for one logical edge between
// path indices a and b on the given color: ramp out at a, pass-through at
// the routers between, ramp in at b.
func addRingEdge(spec *fabric.Spec, path mesh.Path, a, b int, color mesh.Color) error {
	step := 1
	if b < a {
		step = -1
	}
	toward := func(i int) mesh.Direction {
		if step > 0 {
			return path.TowardEnd(i)
		}
		return path.TowardStart(i)
	}
	backward := func(i int) mesh.Direction {
		if step > 0 {
			return path.TowardStart(i)
		}
		return path.TowardEnd(i)
	}
	add := func(i int, cfg fabric.RouterConfig) error {
		pe := spec.PE(path[i])
		if pe.ConfigsFor(color) != nil {
			return fmt.Errorf("comm: ring color %d collides at path index %d", color, i)
		}
		pe.AddConfig(color, cfg)
		return nil
	}
	if err := add(a, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(toward(a))}); err != nil {
		return err
	}
	for i := a + step; i != b; i += step {
		if err := add(i, fabric.RouterConfig{Accept: backward(i), Forward: mesh.Dirs(toward(i))}); err != nil {
			return err
		}
	}
	return add(b, fabric.RouterConfig{Accept: backward(b), Forward: mesh.Dirs(mesh.Ramp)})
}

// BuildRingAllReduce compiles the ring AllReduce of §6.2 on a lane: P-1
// rounds of reduce-scatter followed by P-1 rounds of allgather, with every
// PE sending one chunk of the window and receiving another each round over
// the bidirectional ramp. The window must hold at least one element per PE,
// so every chunk is non-empty.
//
// The paper analyses this algorithm, finds the model picks it only for few
// PEs with long vectors (§8.6) and skips the implementation. Built and run,
// it is what the model says: the best 1D AllReduce at 16 PEs from 4 KB up,
// never at 64 PEs and beyond — core's TestRingCrossover measures the
// crossover, and Auto deploys the ring where it wins.
func BuildRingAllReduce(spec *fabric.Spec, lane Lane, mapping RingMapping, op fabric.ReduceOp) error {
	return buildRingPhases(spec, lane, mapping, op, true, true)
}

// buildRingPhases compiles the reduce-scatter (rs) and/or allgather (ag)
// phases of the ring on a lane. Chunk ownership follows path indices:
// afterwards a reduce-scatter leaves the combined chunk j of the window on
// path index j, and a standalone allgather expects path index j to start
// with chunk j in place (at its chunk offset).
func buildRingPhases(spec *fabric.Spec, lane Lane, mapping RingMapping, op fabric.ReduceOp, rs, ag bool) error {
	path, p := lane.Path, len(lane.Path)
	if p < 2 {
		return fmt.Errorf("comm: ring needs at least 2 PEs")
	}
	if lane.N < p {
		return fmt.Errorf("comm: ring needs B >= P for non-empty chunks (B=%d, P=%d)", lane.N, p)
	}
	if err := lane.validate(p); err != nil {
		return err
	}
	order, err := ringOrder(p, mapping)
	if err != nil {
		return err
	}
	off, sz := lane.chunks()
	edge := func(k int) mesh.Color { return lane.Base + ringEdgeColor(k, p, mapping) }
	// The round schedule works in ring-position space; chunkOf maps a
	// ring-space chunk index to the absolute chunk it denotes, chosen so
	// that ring position k finishes the reduce-scatter holding the chunk
	// of its own path index order[k].
	chunkOf := func(q int) int { return order[((q-1)%p+p)%p] }

	// Static routing per logical edge.
	for k := 0; k < p; k++ {
		a, bIdx := order[k], order[(k+1)%p]
		if err := addRingEdge(spec, path, a, bIdx, edge(k)); err != nil {
			return err
		}
	}

	// Per-PE programs: P-1 full-duplex rounds per phase.
	for k := 0; k < p; k++ {
		pe := spec.PE(path[order[k]])
		out, in := edge(k), edge((k-1+p)%p)
		if rs {
			for r := 0; r < p-1; r++ {
				s := chunkOf(k - r)
				rc := chunkOf(k - r - 1)
				pe.Ops = append(pe.Ops, fabric.Op{
					Kind: fabric.OpSendRecvReduce, OutColor: out, Color: in,
					Off: off[s], N: sz[s], Off2: off[rc], N2: sz[rc],
					Reduce: op,
				})
			}
		}
		if ag {
			for r := 0; r < p-1; r++ {
				s := chunkOf(k + 1 - r)
				rc := chunkOf(k - r)
				pe.Ops = append(pe.Ops, fabric.Op{
					Kind: fabric.OpSendRecvStore, OutColor: out, Color: in,
					Off: off[s], N: sz[s], Off2: off[rc], N2: sz[rc],
				})
			}
		}
	}
	return nil
}

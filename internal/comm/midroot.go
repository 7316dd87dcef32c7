package comm

import (
	"fmt"

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
// contention.

// reversePath returns the path walked from its far end back to the start.
func reversePath(p mesh.Path) mesh.Path {
	out := make(mesh.Path, len(p))
	for i := range p {
		out[i] = p[len(p)-1-i]
	}
	return out
}

// BuildAllReduceMidRoot compiles a middle-root AllReduce along a path of p
// PEs: westTree reduces the ⌊p/2⌋+1 PEs from the middle back to the start,
// eastTree the ⌈p/2⌉ from the middle to the end, each indexed by distance
// from the middle (any of the §5 patterns, or a pair searched together).
// Colors 0-4 are used: {0,1} for the west half, {2,3} for the east half,
// 4 for the bidirectional flood.
func BuildAllReduceMidRoot(spec *fabric.Spec, path mesh.Path, b int, westTree, eastTree Tree, op fabric.ReduceOp) error {
	p := len(path)
	if p < 1 {
		return fmt.Errorf("comm: empty path")
	}
	if err := path.Validate(); err != nil {
		return err
	}
	if p == 1 {
		return nil
	}
	mid := p / 2

	// West half: path indices mid..0, reduced to mid.
	if mid > 0 {
		west := reversePath(path[:mid+1])
		if err := BuildTreeReduce(spec, west, westTree, b, ColorPair{0, 1}, op); err != nil {
			return fmt.Errorf("comm: west half: %w", err)
		}
	}
	// East half: path indices mid..P-1, reduced to mid. The middle PE's
	// accumulator is shared, so its own contribution is counted exactly
	// once even though it roots both trees.
	if mid < p-1 {
		east := path[mid:]
		if err := BuildTreeReduce(spec, east, eastTree, b, ColorPair{2, 3}, op); err != nil {
			return fmt.Errorf("comm: east half: %w", err)
		}
	}

	// Bidirectional flood from the middle on one color: the middle
	// router multicasts the ramp stream towards both row ends.
	const bc mesh.Color = 4
	for v := 0; v < p; v++ {
		pe := spec.PE(path[v])
		if v == mid {
			pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpSend, Color: bc, N: b})
			var fwd mesh.DirSet
			if mid > 0 {
				fwd = fwd.Set(path.TowardStart(mid))
			}
			if mid < p-1 {
				fwd = fwd.Set(path.TowardEnd(mid))
			}
			pe.AddConfig(bc, fabric.RouterConfig{Accept: mesh.Ramp, Forward: fwd})
			continue
		}
		pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpRecvStore, Color: bc, N: b})
		fwd := mesh.Dirs(mesh.Ramp)
		var accept mesh.Direction
		if v < mid {
			accept = path.TowardEnd(v) // stream arrives from the middle side
			if v > 0 {
				fwd = fwd.Set(path.TowardStart(v))
			}
		} else {
			accept = path.TowardStart(v)
			if v < p-1 {
				fwd = fwd.Set(path.TowardEnd(v))
			}
		}
		pe.AddConfig(bc, fabric.RouterConfig{Accept: accept, Forward: fwd})
	}
	return nil
}

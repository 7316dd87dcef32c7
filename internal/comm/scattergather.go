package comm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// Scatter and Gather complete the MPI-style collective suite (§2.1 frames
// the work in MPI collective terms). Both move per-PE chunks between the
// path root and the other PEs; the chunking convention matches the ring:
// chunk j belongs to path index j, with balanced sizes when B is not
// divisible by P.

// Chunks returns the balanced chunk offsets and sizes for b elements over
// p PEs (chunk j gets b/p elements, the first b%p chunks one extra).
func Chunks(p, b int) (off, sz []int) {
	off = make([]int, p)
	sz = make([]int, p)
	for j := 0; j < p; j++ {
		sz[j] = b / p
		if j < b%p {
			sz[j]++
		}
		if j > 0 {
			off[j] = off[j-1] + sz[j-1]
		}
	}
	return off, sz
}

// BuildScatter compiles a Scatter: path index 0 holds a full B-element
// vector and delivers chunk j to path index j. The root streams the
// chunks farthest-first; each router passes the transfers destined beyond
// it (counting their trailing controls) and then delivers its own up the
// ramp — the same counted-configuration idiom the reduce compiler uses,
// run in reverse.
func BuildScatter(spec *fabric.Spec, path mesh.Path, b int, color mesh.Color) error {
	p := len(path)
	if p < 2 {
		return fmt.Errorf("comm: scatter needs at least 2 PEs")
	}
	if b < p {
		return fmt.Errorf("comm: scatter needs B >= P for non-empty chunks (B=%d, P=%d)", b, p)
	}
	if err := path.Validate(); err != nil {
		return err
	}
	off, sz := Chunks(p, b)

	root := spec.PE(path[0])
	// Root sends chunks for PEs P-1 down to 1; chunk 0 stays local.
	for v := p - 1; v >= 1; v-- {
		root.Ops = append(root.Ops, fabric.Op{Kind: fabric.OpSend, Color: color, Off: off[v], N: sz[v]})
	}
	root.AddConfig(color, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(path.TowardEnd(0))})

	for v := 1; v < p; v++ {
		pe := spec.PE(path[v])
		pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpRecvStore, Color: color, N: sz[v]})
		// Pass the p-1-v transfers headed beyond v, then take ours.
		if v < p-1 {
			pe.AddConfig(color, fabric.RouterConfig{
				Accept:  path.TowardStart(v),
				Forward: mesh.Dirs(path.TowardEnd(v)),
				Times:   p - 1 - v,
			})
		}
		pe.AddConfig(color, fabric.RouterConfig{
			Accept:  path.TowardStart(v),
			Forward: mesh.Dirs(mesh.Ramp),
			Times:   1,
		})
	}
	return nil
}

// BuildGather compiles a Gather: each path index j sends its sz[j]-element
// chunk, which sits at the start of its buffer, to path index 0, which
// assembles the full vector in chunk order.
func BuildGather(spec *fabric.Spec, path mesh.Path, b int, color mesh.Color) error {
	p := len(path)
	if p < 2 {
		return fmt.Errorf("comm: gather needs at least 2 PEs")
	}
	if b < p {
		return fmt.Errorf("comm: gather needs B >= P for non-empty chunks (B=%d, P=%d)", b, p)
	}
	if err := path.Validate(); err != nil {
		return err
	}
	off, sz := Chunks(p, b)
	gatherChunks(spec, path, off, sz, false, color)
	return nil
}

// gatherChunks compiles the star that carries the chunk of every path index
// v > 0, sz[v] elements, to path index 0, which stores it at off[v]: senders
// inject after their own router turns to pass-through, so the root receives
// chunks 1, 2, ... in order. A placed chunk is sent from off[v] of its
// sender's buffer, any other from the start.
func gatherChunks(spec *fabric.Spec, path mesh.Path, off, sz []int, placed bool, color mesh.Color) {
	p := len(path)
	root := spec.PE(path[0])
	for v := 1; v < p; v++ {
		root.Ops = append(root.Ops, fabric.Op{Kind: fabric.OpRecvStore, Color: color, Off: off[v], N: sz[v]})
	}
	root.AddConfig(color, fabric.RouterConfig{Accept: path.TowardEnd(0), Forward: mesh.Dirs(mesh.Ramp)})

	for v := 1; v < p; v++ {
		pe := spec.PE(path[v])
		op := fabric.Op{Kind: fabric.OpSend, Color: color, N: sz[v]}
		if placed {
			op.Off = off[v]
		}
		pe.Ops = append(pe.Ops, op)
		pe.AddConfig(color, fabric.RouterConfig{
			Accept:  mesh.Ramp,
			Forward: mesh.Dirs(path.TowardStart(v)),
			Times:   1,
		})
		if v < p-1 {
			pe.AddConfig(color, fabric.RouterConfig{
				Accept:  path.TowardEnd(v),
				Forward: mesh.Dirs(path.TowardStart(v)),
			})
		}
	}
}

// BuildReduceScatter compiles a ReduceScatter on a lane: afterwards path
// index j holds chunk j of the elementwise combination of the window. It is
// the first phase of the ring AllReduce (§6.2), so it reuses the ring's
// mapping, coloring and full-duplex rounds.
func BuildReduceScatter(spec *fabric.Spec, lane Lane, mapping RingMapping, op fabric.ReduceOp) error {
	return buildRingPhases(spec, lane, mapping, op, true, false)
}

// BuildAllGather compiles an AllGather on a lane: beforehand path index j
// holds chunk j of the window (at its chunk offset); afterwards every PE
// holds the whole window. It is the second phase of the ring AllReduce.
func BuildAllGather(spec *fabric.Spec, lane Lane, mapping RingMapping) error {
	return buildRingPhases(spec, lane, mapping, fabric.OpSum, false, true)
}

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
		off[j], sz[j] = Chunk(p, b, j)
	}
	return off, sz
}

// Chunk is chunk j of Chunks(p, b), without the tables: its offset and its
// size.
func Chunk(p, b, j int) (off, n int) {
	q, r := b/p, b%p
	off, n = j*q+min(j, r), q
	if j < r {
		n++
	}
	return off, n
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

	// Root sends chunks for PEs P-1 down to 1; chunk 0 stays local.
	ops := make([]fabric.Op, 0, p-1)
	for v := p - 1; v >= 1; v-- {
		ops = append(ops, fabric.Op{Kind: fabric.OpSend, Color: color, Off: off[v], N: sz[v]})
	}
	spec.Append(path[0], ops...)
	spec.AddConfig(path[0], color, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(path.TowardEnd(0))})

	for v := 1; v < p; v++ {
		c := path[v]
		spec.Append(c, fabric.Op{Kind: fabric.OpRecvStore, Color: color, N: sz[v]})
		// Pass the p-1-v transfers headed beyond v, then take ours.
		if v < p-1 {
			spec.AddConfig(c, color, fabric.RouterConfig{
				Accept:  path.TowardStart(v),
				Forward: mesh.Dirs(path.TowardEnd(v)),
				Times:   p - 1 - v,
			})
		}
		spec.AddConfig(c, color, fabric.RouterConfig{
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
	ops := make([]fabric.Op, 0, p-1)
	for v := 1; v < p; v++ {
		ops = append(ops, fabric.Op{Kind: fabric.OpRecvStore, Color: color, Off: off[v], N: sz[v]})
	}
	spec.Append(path[0], ops...)
	gatherChunks(spec, path, off, sz, false, color)
	return nil
}

// gatherChunks compiles the star that carries the chunk of every path index
// v > 0, sz[v] elements, to path index 0, which stores it at off[v] — all
// but the root's program, which takes chunks 1, 2, ... in order: senders
// inject after their own router turns to pass-through. A placed chunk is
// sent from off[v] of its sender's buffer, any other from the start.
func gatherChunks(spec *fabric.Spec, path mesh.Path, off, sz []int, placed bool, color mesh.Color) {
	p := len(path)
	spec.AddConfig(path[0], color, fabric.RouterConfig{Accept: path.TowardEnd(0), Forward: mesh.Dirs(mesh.Ramp)})
	for v := 1; v < p; v++ {
		c := path[v]
		op := fabric.Op{Kind: fabric.OpSend, Color: color, N: sz[v]}
		if placed {
			op.Off = off[v]
		}
		spec.Append(c, op)
		spec.AddConfig(c, color, fabric.RouterConfig{
			Accept:  mesh.Ramp,
			Forward: mesh.Dirs(path.TowardStart(v)),
			Times:   1,
		})
		if v < p-1 {
			spec.AddConfig(c, color, fabric.RouterConfig{
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
	return buildRingPhases(spec, lane, mapping, op, rsRounds, false)
}

// BuildReduceScatterStreamed compiles the ReduceScatter of BuildReduceScatter
// on the simple ring, streamed: every PE forwards each partial sum the cycle
// it arrives instead of taking the whole chunk first. It leaves the same
// chunks on the same PEs, reduced in the same order, so the same bits; it
// needs every edge's queues to hold a whole chunk and its control.
func BuildReduceScatterStreamed(spec *fabric.Spec, lane Lane, op fabric.ReduceOp) error {
	return buildRingPhases(spec, lane, RingSimple, op, rsStreamed, false)
}

// BuildAllGather compiles an AllGather on a lane: beforehand path index j
// holds chunk j of the window (at its chunk offset); afterwards every PE
// holds the whole window. It is the second phase of the ring AllReduce.
func BuildAllGather(spec *fabric.Spec, lane Lane, mapping RingMapping) error {
	return buildRingPhases(spec, lane, mapping, fabric.OpSum, rsNone, true)
}

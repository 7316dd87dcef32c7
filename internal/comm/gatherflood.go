package comm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// The gather-flood AllGather: every PE floods its own chunk to every other
// PE on its own turn, in path order. A flood costs about one message however
// many PEs it reaches (§4.2, Lemma 4.1), so the P floods of one chunk each
// move the vector once, where Gather-then-Broadcast moves it twice — into the
// root and out of it.
//
// All turns share one color, and every router passes them in path order:
// the turns from the start's side, its own, then the turns from the end's
// side — three counted configurations. So a turn leaves its router only once
// the turn before it has crossed that router, and no two turns ever contend
// for a wire. PE v posts its chunk in an OpSendRecvStore beside its receive
// of chunk v−1, so a chunk of 2·T_R wavelets or more already waits on the
// ramp while turn v−1 streams past, and leaves the cycle after turn v−1's
// control has crossed its router (model.GatherFlood prices both cases). On
// rotating colors a turn would leave as soon as no lower color held its wire:
// the lowest color cuts into the stream of the turn before it and fills two
// queues with wavelets no PE can take yet — 1404 cycles against 1219 at
// P = 64, B = 1024.

// BuildGatherFlood compiles the gather-flood AllGather on a lane, every turn
// on its Base color: beforehand path index j holds chunk j of the window at
// its offset; afterwards every PE holds the whole window.
func BuildGatherFlood(spec *fabric.Spec, lane Lane) error {
	path, p, color := lane.Path, len(lane.Path), lane.Base
	if p < 2 {
		return fmt.Errorf("comm: gather-flood needs at least 2 PEs")
	}
	if lane.N < p {
		return fmt.Errorf("comm: gather-flood needs B >= P for non-empty chunks (B=%d, P=%d)", lane.N, p)
	}
	if err := lane.validate(p); err != nil {
		return err
	}
	off, sz := lane.chunks()
	for u := 0; u < p; u++ {
		pe := spec.PE(path[u])
		if u == 0 {
			pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpSend, Color: color, Off: off[0], N: sz[0]})
		}
		for v := 0; v < p; v++ {
			switch {
			case v == u-1:
				pe.Ops = append(pe.Ops, fabric.Op{
					Kind: fabric.OpSendRecvStore, OutColor: color, Off: off[u], N: sz[u],
					Color: color, Off2: off[v], N2: sz[v],
				})
			case v != u:
				pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpRecvStore, Color: color, Off: off[v], N: sz[v]})
			}
		}

		// A turn from the start's side goes on towards the end, one from the
		// end's side towards the start; this PE's own goes both ways.
		own, fromStart, fromEnd := mesh.DirSet(0), mesh.Dirs(mesh.Ramp), mesh.Dirs(mesh.Ramp)
		if u > 0 {
			own = own.Set(path.TowardStart(u))
			fromEnd = fromEnd.Set(path.TowardStart(u))
		}
		if u < p-1 {
			own = own.Set(path.TowardEnd(u))
			fromStart = fromStart.Set(path.TowardEnd(u))
		}
		if u > 0 {
			pe.AddConfig(color, fabric.RouterConfig{Accept: path.TowardStart(u), Forward: fromStart, Times: u})
		}
		pe.AddConfig(color, fabric.RouterConfig{Accept: mesh.Ramp, Forward: own, Times: 1})
		if u < p-1 {
			pe.AddConfig(color, fabric.RouterConfig{Accept: path.TowardEnd(u), Forward: fromEnd, Times: p - 1 - u})
		}
	}
	return nil
}

package model

// Model estimates for the extension collectives this reproduction adds on
// top of the paper's set: Scatter, Gather, ReduceScatter, the three
// AllGather schedules and the middle-root AllReduce (the root-placement
// optimisation §6.1 attributes to the stencil implementations of Jacquelin
// et al. [25]). All follow Eq. 1 with the metrics read off the compiled
// patterns; the gather-flood is priced turn by turn.

import "math"

// Scatter estimates delivering per-PE chunks from the row root: the root
// serialises every chunk but its own, B(P-1)/P wavelets (contention), the
// farthest chunk travels P-1 hops, and the last chunk ends with its control.
func (pr Params) Scatter(p, b int) float64 {
	return pr.gatherInto(p, b, 0)
}

// Gather is Scatter's mirror: root contention B(P-1)/P, distance P-1.
func (pr Params) Gather(p, b int) float64 {
	return pr.Scatter(p, b)
}

// gatherInto is a Gather of the balanced chunks into PE root, or a Scatter
// from it: the root's ramp takes every chunk but its own — B(P-1)/P where P
// divides B (or B < P, where no program runs), else B less the root's chunk,
// ⌈B/P⌉ for the first B mod P PEs and ⌊B/P⌋ for the others.
func (pr Params) gatherInto(p, b, root int) float64 {
	if p <= 1 {
		return 0
	}
	cont := float64(b) * float64(p-1) / float64(p)
	if b > p && b%p != 0 {
		own := b / p
		if root < b%p {
			own++
		}
		cont = float64(b - own)
	}
	return cont + float64(p-1) + float64(2*pr.TR) + 1 + float64(pr.Ctl)
}

// ReduceScatter estimates the first ring phase: P-1 rounds, each moving
// a B/P chunk one logical hop with (2T_R+1)-cycle ramp handling per
// dependent round, and the last round's control. Where P does not divide B
// the first B mod P chunks are one element longer, and the partial sum of
// each travels through all P-1 rounds, so every round takes ⌈B/P⌉.
func (pr Params) ReduceScatter(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	return pr.ringPhase(p, b, b/p+1)
}

// AllGather estimates the second ring phase, which has the same shape. A
// lone longer chunk (B mod P = 1) holds each PE up once, one cycle; two or
// more hold up every round, as in the reduce-scatter.
func (pr Params) AllGather(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	if b > p && b%p == 1 {
		return pr.ringPhase(p, b, b/p) + 1
	}
	return pr.ringPhase(p, b, b/p+1)
}

// ringPhase is a ring phase of P-1 rounds, each paced by a chunk of `chunk`
// elements where P does not divide B, and by Lemma 6.1's B/P where it does —
// or where B < P, where no program runs.
func (pr Params) ringPhase(p, b, chunk int) float64 {
	rounds := float64(p-1) * float64(b) / float64(p)
	if b > p && b%p != 0 {
		rounds = float64((p - 1) * chunk)
	}
	return rounds + 2*float64(p) - 3 + float64(p-1)*pr.ramp() + float64(pr.Ctl)
}

// MidRootAllGather estimates the AllGather through the middle PE
// (comm.BuildAllGatherMidRoot): both halves gather into PE ⌊P/2⌋, which
// floods the assembled vector over the longer half, the west one of ⌊P/2⌋+1
// PEs. The middle PE takes every other chunk over its one ramp, back to back,
// as the end PE of a Gather does — splitting the row shortens only the way of
// chunks that queue anyway — so the gather costs a Gather's cycles and the
// flood half a Broadcast's distance.
func (pr Params) MidRootAllGather(p, b int) float64 {
	return pr.Then(pr.gatherInto(p, b, p/2), pr.Broadcast1D(p/2+1, b))
}

// GatherFlood prices the gather-flood AllGather (comm.BuildGatherFlood) turn
// by turn. Turn v floods chunk v, s_v of the balanced chunks, from PE v: its
// w_v = s_v + Ctl wavelets leave PE v's router in consecutive cycles from R_v
// on, where R_0 = T_R (PE 0's send down its ramp) and
//
//	R_{v+1} = max(R_v + w_v + 1, R_{v−1} + w_{v−1} + 1 + 2·T_R + 1)
//
// is the later of two events. Turn v's control has crossed PE v+1's router,
// one hop after it left PE v's at R_v + w_v − 1, and moved its configuration
// on to the ramp. And PE v+1 has its chunk on the ramp: it posts it the cycle
// after it consumed chunk v−1, whose control left PE v−1's router at
// R_{v−1} + w_{v−1} − 1 and came two hops and T_R up, and the chunk takes T_R
// down (PE 1 posts at once, so turn 1 waits for turn 0 alone). The turns
// share one color and each router passes them in order, so none waits on
// another's wire and every PE takes each chunk as it arrives. The last turn is
// Lemma 4.1's flood of its chunk over the whole row, started R_{P−1} − T_R
// late. The form is the simulator's count to the cycle wherever the queues
// keep a stream moving, balanced chunks or not — under the default queue
// depth, at T_R ≤ 3.
func (pr Params) GatherFlood(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	w := func(v int) float64 {
		if v < b%p {
			return pr.transfer(b/p + 1)
		}
		return pr.transfer(b / p)
	}
	before, r := math.Inf(-1), float64(pr.TR) // R_{v−1} + w_{v−1}, R_v
	for v := 0; v < p-1; v++ {
		wv := w(v)
		before, r = r+wv, math.Max(r+wv+1, before+1+pr.ramp())
	}
	// The last chunk is never one of the longer ones.
	return r - float64(pr.TR) + pr.Broadcast1D(p, b/p)
}

// MidRootAllReduce prices the middle-root AllReduce as the one path it is
// (derivation in the package comment). west and east are the reduction trees
// of the two halves, each rooted at the middle PE and indexed by distance
// from it — ⌊P/2⌋+1 and ⌈P/2⌉ vertices, either possibly the single root. The
// middle PE takes the west tree's root children and then the east tree's
// over one ramp, each arriving as the critical path of its own half has it,
// and floods the result over the longer half.
func (pr Params) MidRootAllReduce(west, east []int, b int) float64 {
	return pr.Then(pr.MidRootReduce(west, east, b), pr.Broadcast1D(max(len(west), len(east)), b))
}

// MidRootReduce is the reduce of the middle-root AllReduce alone: the middle
// PE has its last transfer in at begin(mid) + B + Ctl. Zero when neither half
// holds more than the middle PE. The centre root runs it on every row and then
// on the middle column.
func (pr Params) MidRootReduce(west, east []int, b int) float64 {
	if len(west) <= 1 && len(east) <= 1 {
		return 0
	}
	return pr.MidRootBegin(west, east, b) + pr.transfer(b)
}

// MidRootBegin is begin(mid) of the middle-root AllReduce over west and east:
// the cycle the middle PE starts on its last transfer, the one term of
// MidRootAllReduce the choice of trees moves.
func (pr Params) MidRootBegin(west, east []int, b int) float64 {
	return pr.queued(append(pr.rootArrivals(west, b), pr.rootArrivals(east, b)...), b)
}

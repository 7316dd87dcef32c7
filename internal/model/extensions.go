package model

// Model estimates for the extension collectives this reproduction adds on
// top of the paper's set: Scatter, Gather, ReduceScatter, AllGather and
// the middle-root AllReduce (the root-placement optimisation §6.1
// attributes to the stencil implementations of Jacquelin et al. [25]).
// All follow Eq. 1 with the metrics read off the compiled patterns.

// Scatter estimates delivering per-PE chunks from the row root: the root
// serialises B(P-1)/P wavelets (contention), the farthest chunk travels
// P-1 hops, and the last chunk ends with its control.
func (pr Params) Scatter(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	cont := float64(b) * float64(p-1) / float64(p)
	return cont + float64(p-1) + float64(2*pr.TR) + 1 + float64(pr.Ctl)
}

// Gather is Scatter's mirror: root contention B(P-1)/P, distance P-1.
func (pr Params) Gather(p, b int) float64 {
	return pr.Scatter(p, b)
}

// ReduceScatter estimates the first ring phase: P-1 rounds, each moving
// a B/P chunk one logical hop with (2T_R+1)-cycle ramp handling per
// dependent round, and the last round's control.
func (pr Params) ReduceScatter(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1)*float64(b)/float64(p) + 2*float64(p) - 3 + float64(p-1)*pr.ramp() + float64(pr.Ctl)
}

// AllGather estimates the second ring phase, which has the same shape.
func (pr Params) AllGather(p, b int) float64 {
	return pr.ReduceScatter(p, b)
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

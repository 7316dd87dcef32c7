package model

// Model estimates for the extension collectives this reproduction adds on
// top of the paper's set: Scatter, Gather, ReduceScatter, AllGather and
// the middle-root AllReduce (the root-placement optimisation §6.1
// attributes to the stencil implementations of Jacquelin et al. [25]).
// All follow Eq. 1 with the metrics read off the compiled patterns.

// Scatter estimates delivering per-PE chunks from the row root: the root
// serialises B(P-1)/P wavelets (contention) and the farthest chunk
// travels P-1 hops.
func (pr Params) Scatter(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	cont := float64(b) * float64(p-1) / float64(p)
	return cont + float64(p-1) + float64(2*pr.TR) + 1
}

// Gather is Scatter's mirror: root contention B(P-1)/P, distance P-1.
func (pr Params) Gather(p, b int) float64 {
	return pr.Scatter(p, b)
}

// ReduceScatter estimates the first ring phase: P-1 rounds, each moving
// a B/P chunk one logical hop with (2T_R+1)-cycle ramp handling per
// dependent round.
func (pr Params) ReduceScatter(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1)*float64(b)/float64(p) + 2*float64(p) - 3 + float64(p-1)*pr.ramp()
}

// AllGather estimates the second ring phase, which has the same shape.
func (pr Params) AllGather(p, b int) float64 {
	return pr.ReduceScatter(p, b)
}

// MidRootAllReduce is the middle-root lemma (derivation in the package
// comment): T = T_half + C_root·(B+Ctl) + T_bcast(⌊P/2⌋+1, B), where T_half
// is the Reduce estimate of the larger half — ⌊P/2⌋+1 PEs, the middle one
// included — and C_root the number of transfers that half's tree sends into
// its root. The caller supplies both because the halves may run any
// reduction tree, the generated ones included, and only the caller knows the
// tree.
func (pr Params) MidRootAllReduce(tHalf float64, cRoot, p, b int) float64 {
	if p <= 1 {
		return 0
	}
	return tHalf + float64(cRoot)*pr.transfer(b) + pr.Broadcast1D(p/2+1, b)
}

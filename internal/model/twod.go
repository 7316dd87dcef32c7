package model

import "math"

// Broadcast2D is Lemma 7.1: flooding from (0,0) over an M×N grid costs
// T = B + M + N - 2 + 2·T_R + 1 thanks to row/column multicast, and Ctl
// more for the control behind the data.
func (pr Params) Broadcast2D(m, n, b int) float64 {
	if m*n <= 1 {
		return 0
	}
	return float64(b) + float64(m) + float64(n) - 2 + float64(2*pr.TR) + 1 + float64(pr.Ctl)
}

// SnakeReduce is §7.3: the chain pattern mapped boustrophedon over the
// whole grid, with the same cost as a 1D chain on M·N PEs.
func (pr Params) SnakeReduce(m, n, b int) float64 {
	return pr.ChainReduce(m*n, b)
}

// LowerBound2D is Lemma 7.2, the simple 2D Reduce lower bound:
// T ≥ max(B, B/8 + M + N - 1) + 2·T_R + 1. (Contention at the root is at
// least B; energy is at least P·B over at most 8P directed links; the
// distance from the far corner is M+N-2 plus one ramp.)
func (pr Params) LowerBound2D(m, n, b int) float64 {
	if m*n <= 1 {
		return 0
	}
	bw := math.Max(float64(b), float64(b)/8+float64(m)+float64(n)-1)
	return bw + float64(2*pr.TR) + 1
}

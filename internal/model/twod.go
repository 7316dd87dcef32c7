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

// ReduceXY is the X-Y Reduce of §7.2: a 1D reduce along every row (length
// n) followed by a 1D reduce along column 0 (length m), each phase using
// the given 1D pattern: T = T_ReduceX then T_ReduceY.
func (pr Params) ReduceXY(pattern string, m, n, b int) float64 {
	return pr.Then(pr.Reduce1D(pattern, n, b), pr.Reduce1D(pattern, m, b))
}

// SnakeReduce is §7.3: the chain pattern mapped boustrophedon over the
// whole grid, with the same cost as a 1D chain on M·N PEs.
func (pr Params) SnakeReduce(m, n, b int) float64 {
	return pr.ChainReduce(m*n, b)
}

// AllReduceXY is the efficient 2D AllReduce of §7.4: a 2D Reduce followed
// by the 2D flooding broadcast.
func (pr Params) AllReduceXY(pattern string, m, n, b int) float64 {
	return pr.Then(pr.ReduceXY(pattern, m, n, b), pr.Broadcast2D(m, n, b))
}

// AllReduceSnake is Snake Reduce followed by the 2D broadcast.
func (pr Params) AllReduceSnake(m, n, b int) float64 {
	return pr.Then(pr.SnakeReduce(m, n, b), pr.Broadcast2D(m, n, b))
}

// AllReduceXYTwice models the naive 2D AllReduce (§7.4, first variant):
// AllReduce along every row then along every column. It broadcasts twice
// and is bandwidth-inefficient; included for the design-space comparison.
func (pr Params) AllReduceXYTwice(pattern string, m, n, b int) float64 {
	return pr.Then(pr.AllReduce1D(pattern, n, b), pr.AllReduce1D(pattern, m, b))
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

package model

import (
	"math"
	"slices"
)

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

// CombReduce prices a 2D reduce whose column leaves stream their row's last
// transfer up the column — xy-autogen's (comm.BuildReduceXY, streamed) and
// the centre root's — as the one critical path it is over the comb of rows
// and column (derivation in the package comment). rows are the trees each row
// reduces into its column PE over, in the order that PE takes them: the
// corner's one tree, or the centre's west and east halves; cols are the
// column's trees into the grid's root, likewise. Zero on a single PE.
func (pr Params) CombReduce(rows, cols [][]int, b int) float64 {
	var row []float64
	for _, t := range rows {
		row = append(row, pr.rootArrivals(t, b)...)
	}
	rowBegin, arrivals := pr.queued(row, b), slices.Clone(row)
	for _, col := range cols {
		begin := make([]float64, len(col))
		if len(row) > 0 {
			// Vertex v takes its row ahead of its k_v column children: it
			// begins its last transfer no earlier than rowBegin + k_v·(B+Ctl),
			// and a leaf streams its row's last transfer at rowBegin.
			for v := range begin {
				begin[v] = rowBegin
			}
			for c := 1; c < len(col); c++ {
				begin[col[c]] += pr.transfer(b)
			}
		}
		arrivals = append(arrivals, pr.arrivalsFrom(col, begin, b)...)
	}
	if len(arrivals) == 0 {
		return 0
	}
	return pr.queued(arrivals, b) + pr.transfer(b)
}

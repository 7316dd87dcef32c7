package experiments

import (
	"repro/internal/core"
	"repro/internal/model"
)

// Fig10 computes the 2D AllReduce region map of Figure 10 on square
// grids: for every (P, B), the best 2D algorithm (X-Y compositions and
// Snake, each followed by the 2D broadcast) and its speedup over X-Y
// Chain, the vendor baseline. Rows are total PE counts of √P×√P grids
// from 4×4 up to 512×512.
func Fig10() *Heatmap {
	pr := model.Default()
	return Heatmap{
		ID:       "fig10",
		Title:    "2D AllReduce: speedup of best algorithm over X-Y Chain (vendor)",
		RowLabel: "side",
		ColLabel: "bytes",
		Rows:     PowersOfTwo(4, 512),
		Cols:     PowersOfTwo(4, 1<<20),
		Notes: []string{
			"rows are square grids: side 512 means 512x512 = 262144 PEs",
			"as in the paper's Figure 10, the bandwidth-limited region is held by Snake instead of the 1D ring",
		},
	}.fill(func(side, b int) (float64, string) {
		bestName, bestT := "", 0.0
		for _, pat := range []core.Pattern2D{core.XYStar, core.XYChain, core.XYTree, core.XYTwoPhase, core.Snake} {
			if t := core.PredictAllReduce2D(pat, side, side, b, pr); bestName == "" || t < bestT {
				bestName, bestT = string(pat), t
			}
		}
		return core.PredictAllReduce2D(core.XYChain, side, side, b, pr) / bestT, bestName
	})
}

package experiments

import (
	"repro/internal/autogen"
	"repro/internal/model"
)

// Fig8 computes the 1D AllReduce region map of Figure 8: for every (P, B)
// combination, the best fixed algorithm (each Reduce pattern followed by
// the flooding broadcast, plus the ring) and its speedup over Chain+Bcast,
// the vendor's choice.
func Fig8() *Heatmap {
	ps := PowersOfTwo(4, 512)
	bytesCols := PowersOfTwo(4, 1<<20) // up to 1 MB to expose the ring region
	pr := model.Default()
	return Heatmap{
		ID:       "fig8",
		Title:    "1D AllReduce: speedup of best fixed algorithm over Chain+Bcast (vendor)",
		RowLabel: "PEs",
		ColLabel: "bytes",
		Rows:     ps,
		Cols:     bytesCols,
		Notes: []string{
			"regions: reduce-then-broadcast per pattern, plus the analytic ring model (Lemma 6.1)",
			"the ring is model-only here, as in the paper (§8.6): it only wins for tiny PE counts with huge vectors",
		},
	}.fill(func(p, b int) (float64, string) {
		bestName, bestT := "", 0.0
		for _, name := range model.ReduceNames {
			if t := pr.AllReduce1D(name, p, b); bestName == "" || t < bestT {
				bestName, bestT = name+"+bcast", t
			}
		}
		if t := pr.RingAllReduce(p, b); t < bestT {
			bestName, bestT = "ring", t
		}
		return pr.AllReduce1D("chain", p, b) / bestT, bestName
	})
}

// Fig8AutoGen computes the same map with Auto-Gen included, showing the
// speedup the paper's generated collectives achieve over the vendor
// baseline across the whole plane.
func Fig8AutoGen() *Heatmap {
	ps := PowersOfTwo(4, 512)
	bytesCols := PowersOfTwo(4, 1<<20)
	pr := model.Default()
	ag := autogen.For(512)
	return Heatmap{
		ID:       "fig8-autogen",
		Title:    "1D AllReduce: speedup of AutoGen+Bcast over Chain+Bcast (vendor)",
		RowLabel: "PEs",
		ColLabel: "bytes",
		Rows:     ps,
		Cols:     bytesCols,
	}.fill(func(p, b int) (float64, string) {
		return pr.AllReduce1D("chain", p, b) / (ag.Time(p, b, pr.TR) + pr.Broadcast1D(p, b)), ""
	})
}

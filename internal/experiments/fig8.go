package experiments

import (
	"repro/internal/autogen"
	"repro/internal/core"
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
	h := &Heatmap{
		ID:       "fig8",
		Title:    "1D AllReduce: speedup of best fixed algorithm over Chain+Bcast (vendor)",
		RowLabel: "PEs",
		ColLabel: "bytes",
		Rows:     ps,
		Cols:     bytesCols,
		Cells:    make([][]float64, len(ps)),
		Regions:  make([][]string, len(ps)),
		Notes: []string{
			"regions: reduce-then-broadcast per pattern, plus the analytic ring model (Lemma 6.1)",
			"the ring is modelled but, as in the paper (§8.6), never implemented: it only wins for tiny PE counts with huge vectors",
		},
	}
	for i, p := range ps {
		h.Cells[i] = make([]float64, len(bytesCols))
		h.Regions[i] = make([]string, len(bytesCols))
		for j, bytes := range bytesCols {
			b := bytes / 4
			vendor := pr.AllReduce1D("chain", p, b)
			bestName, bestT := "", 0.0
			for _, name := range model.ReduceNames {
				if t := pr.AllReduce1D(name, p, b); bestName == "" || t < bestT {
					bestName, bestT = name+"+bcast", t
				}
			}
			if t := pr.RingAllReduce(p, b); t < bestT {
				bestName, bestT = "ring", t
			}
			h.Cells[i][j] = vendor / bestT
			h.Regions[i][j] = bestName
		}
	}
	return h
}

// Fig8AutoGen computes the same map with Auto-Gen included, showing the
// speedup the paper's generated collectives achieve over the vendor
// baseline across the whole plane.
func Fig8AutoGen() *Heatmap {
	ps := PowersOfTwo(4, 512)
	bytesCols := PowersOfTwo(4, 1<<20)
	pr := model.Default()
	ag := autogen.For(512)
	h := &Heatmap{
		ID:       "fig8-autogen",
		Title:    "1D AllReduce: speedup of AutoGen+Bcast over Chain+Bcast (vendor)",
		RowLabel: "PEs",
		ColLabel: "bytes",
		Rows:     ps,
		Cols:     bytesCols,
		Cells:    make([][]float64, len(ps)),
	}
	for i, p := range ps {
		h.Cells[i] = make([]float64, len(bytesCols))
		for j, bytes := range bytesCols {
			b := bytes / 4
			vendor := pr.AllReduce1D("chain", p, b)
			auto := ag.Time(p, b, pr.TR) + pr.Broadcast1D(p, b)
			h.Cells[i][j] = vendor / auto
		}
	}
	return h
}

// BestAllReduce1D returns the model's pick among the fixed patterns and
// ring for one shape (the decision procedure behind Figure 8).
func BestAllReduce1D(p, b int) (string, float64) {
	pr := model.Default()
	bestName, bestT := "", 0.0
	for _, name := range model.ReduceNames {
		if t := pr.AllReduce1D(name, p, b); bestName == "" || t < bestT {
			bestName, bestT = name+"+bcast", t
		}
	}
	if t := pr.RingAllReduce(p, b); t < bestT {
		bestName, bestT = "ring", t
	}
	if t := core.PredictAllReduce1D(core.AutoGen, p, b, pr); t < bestT {
		bestName, bestT = "autogen+bcast", t
	}
	return bestName, bestT
}

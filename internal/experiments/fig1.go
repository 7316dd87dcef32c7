package experiments

import (
	"fmt"

	"repro/internal/autogen"
	"repro/internal/lowerbound"
	"repro/internal/model"
)

// Fig1Patterns are the five sub-figures of Figure 1, in the paper's order.
var Fig1Patterns = []string{"star", "chain", "tree", "twophase", "autogen"}

// Fig1 computes the optimality-ratio heatmaps of Figure 1: each 1D Reduce
// algorithm's model-predicted runtime divided by the lower bound T*(P,B),
// over P ∈ {4..512} PEs and vector lengths 4 B..32 KB (1..8192 wavelets).
// Star uses the Lemma 5.1 form (see model.StarReduceUpper), matching the
// paper's figure.
func Fig1() []*Heatmap {
	ps := PowersOfTwo(4, 512)
	bytesCols := PowersOfTwo(4, 32768)
	pr := model.Default()
	lb := lowerbound.For(512)
	ag := autogen.For(512)
	var maps []*Heatmap
	for _, pattern := range Fig1Patterns {
		maps = append(maps, Heatmap{
			ID:       "fig1-" + pattern,
			Title:    fmt.Sprintf("optimality ratio of %s 1D Reduce (1.0 = matches lower bound)", pattern),
			RowLabel: "PEs",
			ColLabel: "bytes",
			Rows:     ps,
			Cols:     bytesCols,
		}.fill(func(p, b int) (float64, string) {
			var t float64
			switch pattern {
			case "star":
				t = pr.StarReduceUpper(p, b)
			case "autogen":
				t = ag.Time(p, b, pr.TR)
			default:
				t = pr.Reduce1D(pattern, p, b)
			}
			return t / lb.Time(p, b, pr.TR), ""
		}))
	}
	return maps
}

// Fig1Summary extracts the §5.7 claims from the computed heatmaps: the
// worst ratio per algorithm.
func Fig1Summary(maps []*Heatmap) map[string]float64 {
	out := make(map[string]float64, len(maps))
	for _, h := range maps {
		name := h.ID[len("fig1-"):]
		out[name] = h.Max()
	}
	return out
}

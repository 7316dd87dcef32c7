package experiments

import (
	"fmt"
	"math"
	"strings"
)

// HeadlineClaim compares one of the paper's headline speedups with the
// value this reproduction obtains.
type HeadlineClaim struct {
	Name  string
	Paper float64
	Ours  float64
	Basis string
}

// seriesByName finds a series in a figure.
func seriesByName(f *Figure, name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// maxRatio returns the maximum over x of base(x)/target(x), using
// measured values when both exist at a point and falling back to
// predictions otherwise.
func maxRatio(f *Figure, baseName, targetName string) float64 {
	base := seriesByName(f, baseName)
	target := seriesByName(f, targetName)
	if base == nil || target == nil {
		return math.NaN()
	}
	best := math.NaN()
	for i := range base.Points {
		b, t := base.Points[i].Measured, target.Points[i].Measured
		if math.IsNaN(b) || math.IsNaN(t) {
			b, t = base.Points[i].Predicted, target.Points[i].Predicted
		}
		if math.IsNaN(b) || math.IsNaN(t) || t == 0 {
			continue
		}
		if r := b / t; math.IsNaN(best) || r > best {
			best = r
		}
	}
	return best
}

// headlineClaims are the paper's headline improvement factors and where this
// reproduction reads each: the largest base/target ratio over one row's
// x-axis. The 1D numbers come from measured sweeps; the 512×512 numbers are
// model-based (the paper's own region claims at that scale rest on the
// validated model as well).
var headlineClaims = []struct {
	name                     string
	paper                    float64
	row, base, target, basis string
}{
	{"1D Reduce: AutoGen vs vendor chain (512 PEs)", 3.16, "fig11b", "chain", "autogen", "measured, Figure 11b sweep"},                                                                                         // §8.5
	{"1D AllReduce: AutoGen vs chain+bcast (512 PEs)", 2.47, "fig11c", "chain+bcast", "autogen+bcast", "measured, Figure 11c sweep"},                                                                           // §8.6
	{"2D Reduce: X-Y AutoGen vs X-Y Chain (512x512)", 3.27, "fig13a-model", "xy-chain", "xy-autogen", "model at paper scale, Figure 13a; ours is the searched composition: End's trees, streamed hand-off"},    // §8.7
	{"2D AllReduce: X-Y AutoGen vs X-Y Chain (512x512)", 2.54, "fig13b-model", "xy-chain", "xy-autogen", "model at paper scale, Figure 13b; ours is the searched composition: End's trees, streamed hand-off"}, // §8.7
	{"2D Reduce: X-Y TwoPhase vs X-Y Chain (512x512)", 3.32, "fig13a-model", "xy-chain", "xy-twophase", "model at paper scale, §1.3 claim"},
	{"2D AllReduce: X-Y TwoPhase vs X-Y Chain (512x512)", 2.56, "fig13b-model", "xy-chain", "xy-twophase", "model at paper scale, §1.3 claim"},
}

// Headline reads the paper's headline claims off the regenerated figures;
// figure returns the line figure of a catalogue row.
func Headline(figure func(id string) (*Figure, error)) ([]HeadlineClaim, error) {
	claims := make([]HeadlineClaim, len(headlineClaims))
	for i, c := range headlineClaims {
		f, err := figure(c.row)
		if err != nil {
			return nil, err
		}
		claims[i] = HeadlineClaim{Name: c.name, Paper: c.paper, Ours: maxRatio(f, c.base, c.target), Basis: c.basis}
	}
	return claims, nil
}

// RenderHeadline formats the claims as an aligned table.
func RenderHeadline(claims []HeadlineClaim) string {
	var b strings.Builder
	b.WriteString("headline speedups (paper vs this reproduction)\n")
	for _, c := range claims {
		fmt.Fprintf(&b, "  %-52s paper %.2fx  ours %.2fx  (%s)\n", c.Name, c.Paper, c.Ours, c.Basis)
	}
	return b.String()
}

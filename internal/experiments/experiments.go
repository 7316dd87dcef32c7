// Package experiments regenerates every table and figure of the paper's
// evaluation (§5.7, §6.3, §7.6, §8): the optimality-ratio heatmaps of
// Figure 1, the algorithm-selection region maps of Figures 8 and 10, the
// measured-versus-predicted sweeps of Figures 11-13, and the headline
// speedup numbers. The figure set is one table, Catalogue: a row per figure,
// a measured line figure being a declarative Sweep that one loop
// (Config.Run) prices through the kind table (plan.Request.Predict) and
// measures under the §8.3 harness. Model-only figures are computed at the
// paper's full scale; simulated ("measured") figures run on the fabric
// simulator, at full scale in 1D and at a documented reduced scale in 2D
// (simulating 512×512 = 262k PEs cycle-by-cycle is not feasible on a
// workstation; the model, which the paper validates the same way, covers the
// full scale).
package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Point is one x-position of a series with the simulator measurement and
// the model prediction (either may be NaN when not applicable).
type Point struct {
	X         int
	Measured  float64
	Predicted float64
}

// Series is one algorithm's curve in a figure.
type Series struct {
	Name   string
	Points []Point
}

// MeanRelError returns mean |measured−predicted|/measured over points
// that have both values, mirroring the paper's reported relative errors.
func (s Series) MeanRelError() float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if math.IsNaN(p.Measured) || math.IsNaN(p.Predicted) || p.Measured == 0 {
			continue
		}
		sum += math.Abs(p.Measured-p.Predicted) / p.Measured
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Figure is a line-plot figure: several series over a shared x-axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Series []Series
	Notes  []string
}

// WorstRelError is the largest MeanRelError over the figure's series, 0 for
// a figure that measures nothing.
func (f *Figure) WorstRelError() float64 {
	worst := 0.0
	for _, s := range f.Series {
		if e := s.MeanRelError(); e > worst { // a NaN never compares greater
			worst = e
		}
	}
	return worst
}

// Table renders the figure as an aligned text table (cycles).
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " | %22s", s.Name)
	}
	b.WriteString("\n")
	if len(f.Series) > 0 {
		for i := range f.Series[0].Points {
			fmt.Fprintf(&b, "%12d", f.Series[0].Points[i].X)
			for _, s := range f.Series {
				p := s.Points[i]
				b.WriteString(" | ")
				if math.IsNaN(p.Measured) {
					fmt.Fprintf(&b, "%10s", "-")
				} else {
					fmt.Fprintf(&b, "%10.0f", p.Measured)
				}
				if math.IsNaN(p.Predicted) {
					fmt.Fprintf(&b, "/%10s", "-")
				} else {
					fmt.Fprintf(&b, "/%10.0f", p.Predicted)
				}
			}
			b.WriteString("\n")
		}
	}
	for _, s := range f.Series {
		if e := s.MeanRelError(); !math.IsNaN(e) {
			fmt.Fprintf(&b, "  mean relative error %-22s %5.1f%%\n", s.Name, 100*e)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with one measured and
// one predicted column per series.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s_measured,%s_predicted", s.Name, s.Name)
	}
	b.WriteString("\n")
	if len(f.Series) > 0 {
		for i := range f.Series[0].Points {
			fmt.Fprintf(&b, "%d", f.Series[0].Points[i].X)
			for _, s := range f.Series {
				fmt.Fprintf(&b, ",%s,%s", csvFloat(s.Points[i].Measured), csvFloat(s.Points[i].Predicted))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func csvFloat(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return fmt.Sprintf("%.1f", v)
}

// Heatmap is a (P × B)-gridded figure such as Figure 1's optimality
// ratios or the best-algorithm region maps of Figures 8 and 10.
type Heatmap struct {
	ID       string
	Title    string
	RowLabel string // e.g. "PEs"
	ColLabel string // e.g. "vector bytes"
	Rows     []int
	Cols     []int
	Cells    [][]float64
	// Regions optionally labels each cell with the winning algorithm.
	Regions [][]string
	Notes   []string
}

// fill computes the heatmap cell by cell: cell prices one row value and one
// vector length in wavelets (the columns are bytes) and, for a region map,
// names the winner there.
func (h Heatmap) fill(cell func(n, b int) (v float64, region string)) *Heatmap {
	for _, n := range h.Rows {
		cells, regions := make([]float64, len(h.Cols)), make([]string, len(h.Cols))
		for j, bytes := range h.Cols {
			cells[j], regions[j] = cell(n, bytes/4)
		}
		h.Cells = append(h.Cells, cells)
		if regions[0] != "" {
			h.Regions = append(h.Regions, regions)
		}
	}
	return &h
}

// Render draws the heatmap as an aligned text grid, largest row first to
// match the paper's orientation.
func (h *Heatmap) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", h.ID, h.Title)
	fmt.Fprintf(&b, "%10s", h.RowLabel+"\\"+h.ColLabel)
	for _, c := range h.Cols {
		fmt.Fprintf(&b, " %8d", c)
	}
	b.WriteString("\n")
	for i := len(h.Rows) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%10d", h.Rows[i])
		for j := range h.Cols {
			fmt.Fprintf(&b, " %8.1f", h.Cells[i][j])
		}
		b.WriteString("\n")
		if h.Regions != nil {
			fmt.Fprintf(&b, "%10s", "")
			for j := range h.Cols {
				fmt.Fprintf(&b, " %8s", shorten(h.Regions[i][j], 8))
			}
			b.WriteString("\n")
		}
	}
	for _, n := range h.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Max returns the maximum cell value.
func (h *Heatmap) Max() float64 {
	max := math.Inf(-1)
	for _, row := range h.Cells {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// PowersOfTwo returns lo, 2lo, ..., up to hi inclusive.
func PowersOfTwo(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v *= 2 {
		out = append(out, v)
	}
	return out
}

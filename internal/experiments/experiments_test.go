package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFig1ReproducesPaperRatios(t *testing.T) {
	maps := Fig1()
	if len(maps) != 5 {
		t.Fatalf("%d heatmaps", len(maps))
	}
	sum := Fig1Summary(maps)
	// §5.7 / Figure 1: Auto-Gen ≤ 1.4×, Two-Phase ≤ 2.4×, fixed patterns
	// up to ~5.9× (and star's worst cell, B=32 KB at 512 PEs, is 371.8).
	if sum["autogen"] > 1.45 || sum["autogen"] < 1.0 {
		t.Errorf("autogen worst ratio %.3f, paper 1.4", sum["autogen"])
	}
	if sum["twophase"] > 2.45 {
		t.Errorf("twophase worst ratio %.3f, paper 2.4", sum["twophase"])
	}
	if sum["star"] < 300 || sum["star"] > 450 {
		t.Errorf("star worst ratio %.1f, paper's Figure 1a shows 371.8", sum["star"])
	}
	if sum["chain"] < 5.0 || sum["chain"] > 7.0 {
		t.Errorf("chain worst ratio %.2f, paper's Figure 1b shows 5.9", sum["chain"])
	}
	// Spot-check individual cells against the published heatmap.
	star := maps[0]
	got := star.Cells[len(star.Rows)-1][len(star.Cols)-1] // 512 PEs, 32 KB
	if got < 360 || got > 385 {
		t.Errorf("star(512, 32KB) ratio %.1f, paper shows 371.8", got)
	}
	chain := maps[1]
	got = chain.Cells[len(chain.Rows)-1][0] // 512 PEs, 4 B
	if got < 5.5 || got > 6.3 {
		t.Errorf("chain(512, 4B) ratio %.1f, paper shows 5.9", got)
	}
}

func TestFig8Regions(t *testing.T) {
	h := Fig8()
	// Small vectors, many PEs: star-family wins (Figure 8's left band).
	topLeft := h.Regions[len(h.Rows)-1][0]
	if !strings.HasPrefix(topLeft, "star") {
		t.Errorf("512 PEs / 4 B region is %q, want star*", topLeft)
	}
	// Huge vectors on few PEs: ring (Figure 8's bottom-right region).
	bottomRight := h.Regions[0][len(h.Cols)-1]
	if bottomRight != "ring" {
		t.Errorf("4 PEs / 1 MB region is %q, want ring", bottomRight)
	}
	// The vendor never beats the best choice.
	for i := range h.Rows {
		for j := range h.Cols {
			if h.Cells[i][j] < 1.0-1e-9 {
				t.Fatalf("speedup %.3f < 1 at P=%d B=%d", h.Cells[i][j], h.Rows[i], h.Cols[j])
			}
		}
	}
}

func TestFig10Regions(t *testing.T) {
	h := Fig10()
	// Bandwidth-limited corner (few PEs, huge vectors): Snake replaces
	// ring in 2D (§7.6).
	if got := h.Regions[0][len(h.Cols)-1]; got != "snake" {
		t.Errorf("4x4 / 1 MB region is %q, want snake", got)
	}
	// Full wafer with small vectors: a low-depth X-Y pattern wins.
	topLeft := h.Regions[len(h.Rows)-1][0]
	if topLeft == "snake" || topLeft == "xy-chain" {
		t.Errorf("512x512 / 4 B region is %q, want a low-depth X-Y pattern", topLeft)
	}
	if h.Max() < 2.0 {
		t.Errorf("max 2D speedup %.2f, paper reports up to ~3.3x", h.Max())
	}
}

// figures builds the named sweep rows of the catalogue under cfg.
func figures(t *testing.T, cfg Config, ids ...string) []*Figure {
	t.Helper()
	arts, err := cfg.Run(ids...)
	if err != nil {
		t.Fatal(err)
	}
	figs := make([]*Figure, len(arts))
	for i, a := range arts {
		if figs[i] = a.Figure; figs[i] == nil {
			t.Fatalf("%s built no line figure", a.ID)
		}
	}
	return figs
}

// holdToModel fails for every measured series of fig whose mean relative
// error exceeds limit: the abstract claims the model predicts "with less
// than 4 % error".
func holdToModel(t *testing.T, fig *Figure, limit float64) {
	t.Helper()
	for _, s := range fig.Series {
		if e := s.MeanRelError(); e > limit {
			t.Errorf("%s/%s: mean relative error %.2f%%, want <= %.0f%%", fig.ID, s.Name, 100*e, 100*limit)
		}
	}
}

func TestFig11SweepTiny(t *testing.T) {
	figs := figures(t, Tiny(), "fig11a", "fig11b", "fig11c")
	for _, f := range figs {
		holdToModel(t, f, 0.05)
	}
	for _, s := range figs[1].Series {
		if math.IsNaN(s.MeanRelError()) {
			t.Errorf("fig11b/%s measured nothing", s.Name)
		}
	}
	if len(figs[2].Series) != len(core.Patterns1D)+2 {
		t.Fatalf("%d series in fig11c", len(figs[2].Series))
	}
}

func TestFig12SweepTiny(t *testing.T) {
	fb := figures(t, Tiny(), "fig12b")[0]
	holdToModel(t, fb, 0.05)
	// The model must predict the right winner transitions: chain best at
	// few PEs, two-phase / autogen at many (§8.5).
	chain := seriesByName(fb, "chain")
	two := seriesByName(fb, "twophase")
	if chain.Points[0].Measured > two.Points[0].Measured {
		t.Errorf("at %d PEs chain (%.0f) should beat twophase (%.0f)",
			chain.Points[0].X, chain.Points[0].Measured, two.Points[0].Measured)
	}
	last := len(chain.Points) - 1
	if chain.Points[last].Measured < two.Points[last].Measured {
		t.Errorf("at %d PEs twophase (%.0f) should beat chain (%.0f)",
			chain.Points[last].X, two.Points[last].Measured, chain.Points[last].Measured)
	}
}

func TestFig13SweepTiny(t *testing.T) {
	figs := figures(t, Tiny(), "fig13a", "fig13c")
	holdToModel(t, figs[0], 0.05)
	for _, s := range figs[0].Series {
		if math.IsNaN(s.MeanRelError()) {
			t.Errorf("fig13a/%s measured nothing", s.Name)
		}
	}
	// Snake wins on tiny grids with 1 KB vectors, loses badly at scale
	// (its predicted 512x512 value is the paper's ~2 ms outlier).
	snake := seriesByName(figs[1], "snake")
	chain := seriesByName(figs[1], "xy-chain")
	if snake.Points[0].Predicted > chain.Points[0].Predicted {
		t.Errorf("4x4: snake %.0f should beat xy-chain %.0f",
			snake.Points[0].Predicted, chain.Points[0].Predicted)
	}
	last := len(snake.Points) - 1
	if snake.Points[last].Predicted < 10*chain.Points[last].Predicted {
		t.Errorf("512x512: snake %.0f should be far above xy-chain %.0f",
			snake.Points[last].Predicted, chain.Points[last].Predicted)
	}
}

func TestHeadlineClaims(t *testing.T) {
	cfg := Tiny()
	cfg.Bs = []int{64, 256, 1024, 4096} // span the crossover region
	claims, err := Headline(func(id string) (*Figure, error) { return figures(t, cfg, id)[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 6 {
		t.Fatalf("%d claims, the paper makes 6", len(claims))
	}
	for _, c := range claims {
		if math.IsNaN(c.Ours) {
			t.Errorf("%s: no value", c.Name)
			continue
		}
		// Shape reproduction: the winner and rough factor must hold. Our
		// substrate is a simulator at partially reduced scale, so allow a
		// generous band around the paper's number.
		if c.Ours < 0.55*c.Paper || c.Ours > 1.8*c.Paper {
			t.Errorf("%s: ours %.2fx vs paper %.2fx (outside [0.55x, 1.8x] band)", c.Name, c.Ours, c.Paper)
		}
		if c.Ours < 1.0 {
			t.Errorf("%s: ours %.2fx — improvement direction not reproduced", c.Name, c.Ours)
		}
	}
	t.Log("\n" + RenderHeadline(claims))
}

func TestRenderers(t *testing.T) {
	maps := Fig1()
	if s := maps[0].Render(); !strings.Contains(s, "fig1-star") {
		t.Error("heatmap render missing ID")
	}
	cfg := Tiny()
	cfg.Bs = []int{1, 16}
	cfg.Ps = []int{4, 16}
	fa := figures(t, cfg, "fig12a")[0]
	if s := fa.Table(); !strings.Contains(s, "fig12a") {
		t.Error("table render missing ID")
	}
	if s := fa.CSV(); !strings.Contains(s, "broadcast_measured") {
		t.Error("csv render missing header")
	}
}

package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// patterns2D are the measured 2D patterns in the paper's legend order;
// X-Y Chain is the vendor baseline.
var patterns2D = []core.Pattern2D{core.XYStar, core.XYChain, core.XYTree, core.XYTwoPhase, core.XYAutoGen, core.Snake}

// Fig13a regenerates Figure 13a: 2D Reduce with increasing vector length.
// Measured runs use a Side2D×Side2D grid (the paper's 512×512 hardware
// region is infeasible to simulate cycle-by-cycle); predictions are
// reported at the same side so relative error is meaningful, and
// Fig13Model512 covers the paper's full scale analytically.
func (cfg Config) Fig13a() (*Figure, error) {
	fig := &Figure{
		ID:     "fig13a",
		Title:  fmt.Sprintf("2D Reduce, %dx%d PEs, increasing vector length (measured/predicted cycles)", cfg.Side2D, cfg.Side2D),
		XLabel: "bytes",
		Notes: []string{
			fmt.Sprintf("paper measures 512x512 on hardware; measured runs here use %dx%d, model covers 512x512 (fig13a-model)", cfg.Side2D, cfg.Side2D),
		},
	}
	for _, pat := range patterns2D {
		s := Series{Name: string(pat)}
		for _, b := range cfg.Bs {
			pt := Point{
				X:         4 * b,
				Measured:  math.NaN(),
				Predicted: core.PredictReduce2D(pat, cfg.Side2D, cfg.Side2D, b, cfg.params()),
			}
			if pat != core.XYStar || b <= cfg.StarBCap {
				m, err := cfg.measureReduce2D(pat, cfg.Side2D, b)
				if err != nil {
					return nil, err
				}
				pt.Measured = m
			}
			s.Points = append(s.Points, pt)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig13b regenerates Figure 13b: 2D AllReduce, vector-length sweep.
func (cfg Config) Fig13b() (*Figure, error) {
	fig := &Figure{
		ID:     "fig13b",
		Title:  fmt.Sprintf("2D AllReduce, %dx%d PEs, increasing vector length (measured/predicted cycles)", cfg.Side2D, cfg.Side2D),
		XLabel: "bytes",
		Notes: []string{
			fmt.Sprintf("measured at %dx%d; the paper's 512x512 shape is covered by the model (fig13b-model)", cfg.Side2D, cfg.Side2D),
		},
	}
	for _, pat := range patterns2D {
		s := Series{Name: string(pat)}
		for _, b := range cfg.Bs {
			pt := Point{
				X:         4 * b,
				Measured:  math.NaN(),
				Predicted: core.PredictAllReduce2D(pat, cfg.Side2D, cfg.Side2D, b, cfg.params()),
			}
			if pat != core.XYStar || b <= cfg.StarBCap {
				m, err := cfg.measureAllReduce2D(pat, cfg.Side2D, b)
				if err != nil {
					return nil, err
				}
				pt.Measured = m
			}
			s.Points = append(s.Points, pt)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig13c regenerates Figure 13c: 2D Reduce of a fixed 1 KB vector on
// growing square grids. Measured points cover Sides2D; predictions extend
// to the paper's 512×512.
func (cfg Config) Fig13c() (*Figure, error) {
	sides := PowersOfTwo(4, 512)
	measured := make(map[int]bool, len(cfg.Sides2D))
	for _, s := range cfg.Sides2D {
		measured[s] = true
	}
	fig := &Figure{
		ID:     "fig13c",
		Title:  "2D Reduce, 1 KB vector, increasing grid side (measured/predicted cycles)",
		XLabel: "side",
		Notes: []string{
			fmt.Sprintf("measured grids: %v; larger sides are model-only", cfg.Sides2D),
		},
	}
	for _, pat := range patterns2D {
		s := Series{Name: string(pat)}
		for _, side := range sides {
			pt := Point{
				X:         side,
				Measured:  math.NaN(),
				Predicted: core.PredictReduce2D(pat, side, side, cfg.FixedB, cfg.params()),
			}
			// Snake on big grids is Θ(B·P) simulation work and dominated
			// by its linear depth anyway; measure it on the smaller grids.
			if measured[side] && (pat != core.Snake || side <= 32) {
				m, err := cfg.measureReduce2D(pat, side, cfg.FixedB)
				if err != nil {
					return nil, err
				}
				pt.Measured = m
			}
			s.Points = append(s.Points, pt)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig13Model512 reports the model-only version of Figures 13a/13b at the
// paper's full 512×512 scale, the scale at which the paper quotes its
// 3.27× (Reduce) and 2.54× (AllReduce) improvements over X-Y Chain.
func (cfg Config) Fig13Model512(allreduce bool) *Figure {
	id, title := "fig13a-model", "2D Reduce, 512x512 PEs (model only), increasing vector length"
	if allreduce {
		id, title = "fig13b-model", "2D AllReduce, 512x512 PEs (model only), increasing vector length"
	}
	fig := &Figure{ID: id, Title: title, XLabel: "bytes"}
	for _, pat := range patterns2D {
		s := Series{Name: string(pat)}
		for _, b := range cfg.Bs {
			var t float64
			if allreduce {
				t = core.PredictAllReduce2D(pat, 512, 512, b, cfg.params())
			} else {
				t = core.PredictReduce2D(pat, 512, 512, b, cfg.params())
			}
			s.Points = append(s.Points, Point{X: 4 * b, Measured: math.NaN(), Predicted: t})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

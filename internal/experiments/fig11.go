package experiments

import (
	"math"

	"repro/internal/core"
)

// seriesPatterns are the measured 1D patterns in the paper's legend
// order; chain is the vendor baseline.
var seriesPatterns = core.Patterns1D

// Fig11a regenerates Figure 11a: 1D Broadcast on a row of P1D PEs with
// increasing vector length, measured (simulator, §8.3 harness) against
// the model prediction of Lemma 4.1.
func (cfg Config) Fig11a() (*Figure, error) {
	pr := cfg.params()
	s := Series{Name: "broadcast"}
	for _, b := range cfg.Bs {
		m, err := cfg.measureBroadcast1D(cfg.P1D, b)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{X: 4 * b, Measured: m, Predicted: pr.Broadcast1D(cfg.P1D, b)})
	}
	return &Figure{
		ID:     "fig11a",
		Title:  "1D Broadcast, 512x1 PEs, increasing vector length",
		XLabel: "bytes",
		Series: []Series{s},
	}, nil
}

// Fig11b regenerates Figure 11b: 1D Reduce for every pattern on P1D PEs
// with increasing vector length. Star measurements above StarBCap are
// skipped (prediction only); Star's simulation cost is its energy
// Θ(B·P²).
func (cfg Config) Fig11b() (*Figure, error) {
	fig := &Figure{
		ID:     "fig11b",
		Title:  "1D Reduce, 512x1 PEs, increasing vector length (measured/predicted cycles)",
		XLabel: "bytes",
	}
	for _, pat := range seriesPatterns {
		s := Series{Name: string(pat)}
		for _, b := range cfg.Bs {
			pt := Point{
				X:         4 * b,
				Measured:  math.NaN(),
				Predicted: core.PredictReduce1D(pat, cfg.P1D, b, cfg.params()),
			}
			if pat != core.Star || b <= cfg.StarBCap {
				m, err := cfg.measureReduce1D(pat, cfg.P1D, b)
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

// Fig11c regenerates Figure 11c: 1D AllReduce for every pattern
// (reduce-then-broadcast) plus the predicted-only Ring and Butterfly
// curves; exactly as in the paper, ring and butterfly are modelled but
// not implemented because the model shows they never win (§8.6).
func (cfg Config) Fig11c() (*Figure, error) {
	fig := &Figure{
		ID:     "fig11c",
		Title:  "1D AllReduce, 512x1 PEs, increasing vector length (measured/predicted cycles)",
		XLabel: "bytes",
		Notes: []string{
			"ring and butterfly are model-only, as in the paper (§8.6: the model shows they never win, saving the engineering effort)",
		},
	}
	pr := cfg.params()
	for _, pat := range seriesPatterns {
		s := Series{Name: string(pat) + "+bcast"}
		for _, b := range cfg.Bs {
			pt := Point{
				X:         4 * b,
				Measured:  math.NaN(),
				Predicted: core.PredictAllReduce1D(pat, cfg.P1D, b, cfg.params()),
			}
			if pat != core.Star || b <= cfg.StarBCap {
				m, err := cfg.measureAllReduce1D(pat, cfg.P1D, b)
				if err != nil {
					return nil, err
				}
				pt.Measured = m
			}
			s.Points = append(s.Points, pt)
		}
		fig.Series = append(fig.Series, s)
	}
	ring := Series{Name: "ring(model)"}
	butterfly := Series{Name: "butterfly(model)"}
	for _, b := range cfg.Bs {
		ring.Points = append(ring.Points, Point{X: 4 * b, Measured: math.NaN(), Predicted: pr.RingAllReduce(cfg.P1D, b)})
		butterfly.Points = append(butterfly.Points, Point{X: 4 * b, Measured: math.NaN(), Predicted: pr.ButterflyAllReduce(cfg.P1D, b)})
	}
	fig.Series = append(fig.Series, ring, butterfly)
	return fig, nil
}

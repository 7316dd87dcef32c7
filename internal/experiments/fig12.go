package experiments

import (
	"math"

	"repro/internal/core"
)

// Fig12a regenerates Figure 12a: 1D Broadcast of a fixed 1 KB vector
// across an increasing number of PEs.
func (cfg Config) Fig12a() (*Figure, error) {
	pr := cfg.params()
	s := Series{Name: "broadcast"}
	for _, p := range cfg.Ps {
		m, err := cfg.measureBroadcast1D(p, cfg.FixedB)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{X: p, Measured: m, Predicted: pr.Broadcast1D(p, cfg.FixedB)})
	}
	return &Figure{
		ID:     "fig12a",
		Title:  "1D Broadcast, 1 KB vector, increasing number of PEs",
		XLabel: "PEs",
		Series: []Series{s},
	}, nil
}

// Fig12b regenerates Figure 12b: 1D Reduce of a 1 KB vector, PE sweep.
func (cfg Config) Fig12b() (*Figure, error) {
	fig := &Figure{
		ID:     "fig12b",
		Title:  "1D Reduce, 1 KB vector, increasing number of PEs (measured/predicted cycles)",
		XLabel: "PEs",
	}
	for _, pat := range seriesPatterns {
		s := Series{Name: string(pat)}
		for _, p := range cfg.Ps {
			pt := Point{
				X:         p,
				Measured:  math.NaN(),
				Predicted: core.PredictReduce1D(pat, p, cfg.FixedB, cfg.params()),
			}
			if pat != core.Star || p*cfg.FixedB <= 512*cfg.StarBCap {
				m, err := cfg.measureReduce1D(pat, p, cfg.FixedB)
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

// Fig12c regenerates Figure 12c: 1D AllReduce of a 1 KB vector, PE sweep,
// with the predicted-only ring (the paper notes ring is mildly better
// only at 4 PEs and loses everywhere else).
func (cfg Config) Fig12c() (*Figure, error) {
	fig := &Figure{
		ID:     "fig12c",
		Title:  "1D AllReduce, 1 KB vector, increasing number of PEs (measured/predicted cycles)",
		XLabel: "PEs",
	}
	pr := cfg.params()
	for _, pat := range seriesPatterns {
		s := Series{Name: string(pat) + "+bcast"}
		for _, p := range cfg.Ps {
			pt := Point{
				X:         p,
				Measured:  math.NaN(),
				Predicted: core.PredictAllReduce1D(pat, p, cfg.FixedB, cfg.params()),
			}
			if pat != core.Star || p*cfg.FixedB <= 512*cfg.StarBCap {
				m, err := cfg.measureAllReduce1D(pat, p, cfg.FixedB)
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
	for _, p := range cfg.Ps {
		ring.Points = append(ring.Points, Point{X: p, Measured: math.NaN(), Predicted: pr.RingAllReduce(p, cfg.FixedB)})
	}
	fig.Series = append(fig.Series, ring)
	return fig, nil
}

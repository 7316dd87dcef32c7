package experiments

import (
	"math"

	"repro/internal/core"
)

// RingValidation is an extension beyond the paper: the paper analyses the
// ring AllReduce with the model, concludes it is (almost) never the best
// choice on the WSE, and deliberately skips the implementation (§8.6).
// This experiment implements the ring anyway — in both mappings of
// Figure 7 — and measures it on the fabric simulator against the
// chain+broadcast the vendor would use, across the PE range with 4·P
// wavelet vectors (so ring chunks stay non-empty). The outcome documented
// in EXPERIMENTS.md: the model's predicted ordering matches the
// simulator's at every point, which is precisely why skipping the
// implementation was safe.
func (cfg Config) RingValidation() (*Figure, error) {
	fig := &Figure{
		ID:     "ring-validation",
		Title:  "ring AllReduce (implemented as an extension) vs chain+bcast, B = 4P wavelets",
		XLabel: "PEs",
		Notes: []string{
			"the paper keeps ring model-only; this reproduction implements it to validate that decision",
		},
	}
	ring := Series{Name: "ring-simple"}
	ringDP := Series{Name: "ring-distpres"}
	cb := Series{Name: "chain+bcast"}
	pr := cfg.params()
	for _, p := range cfg.Ps {
		if p > 128 {
			break // ring's 2(P-1) rounds make large-P runs slow and pointless
		}
		b := 4 * p
		m, err := cfg.measureAllReduce1D(core.Ring, p, b)
		if err != nil {
			return nil, err
		}
		ring.Points = append(ring.Points, Point{X: p, Measured: m, Predicted: pr.RingAllReduce(p, b)})
		if p%2 == 0 {
			mdp, err := cfg.measureAllReduce1D(core.RingDP, p, b)
			if err != nil {
				return nil, err
			}
			ringDP.Points = append(ringDP.Points, Point{X: p, Measured: mdp, Predicted: pr.RingAllReduce(p, b)})
		} else {
			ringDP.Points = append(ringDP.Points, Point{X: p, Measured: math.NaN(), Predicted: pr.RingAllReduce(p, b)})
		}
		mcb, err := cfg.measureAllReduce1D(core.Chain, p, b)
		if err != nil {
			return nil, err
		}
		cb.Points = append(cb.Points, Point{X: p, Measured: mcb, Predicted: pr.AllReduce1D("chain", p, b)})
	}
	fig.Series = []Series{ring, ringDP, cb}
	return fig, nil
}

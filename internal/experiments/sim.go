package experiments

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/plan"
)

// Config governs the simulated ("measured") experiments. Every measured
// point runs under the §8.3 measurement harness (trigger broadcast,
// α-calibrated staggered starts, calibrated clocks).
type Config struct {
	// Opt parameterises the fabric. The default enables per-PE clock skew
	// so the §8.3 calibration has real work to do.
	Opt fabric.Options
	// P1D is the row length of the Figure 11 sweeps (the paper uses 512,
	// the largest power-of-two row).
	P1D int
	// Bs are the vector lengths (in wavelets) of the B sweeps.
	Bs []int
	// FixedB is the vector length of the PE-count sweeps (Figure 12 and
	// 13c use 1 KB = 256 wavelets).
	FixedB int
	// Ps are the PE counts of the Figure 12 sweeps.
	Ps []int
	// Side2D is the square grid side for the measured Figure 13 a/b runs.
	// The paper measures 512×512 on hardware; simulating 262k PEs
	// cycle-by-cycle is infeasible, so measured runs use this side and
	// the model covers 512 (rows fig13a-model and fig13b-model).
	Side2D int
	// Sides2D are the measured grid sides of the Figure 13c sweep.
	Sides2D []int
	// StarBCap caps the vector length of measured Star runs: Star's
	// simulation work is its energy Θ(B·P²), which dominates everything
	// else in the sweep. Predictions still cover all B.
	StarBCap int
}

// Quick returns the configuration used by the default wsefigures profile
// and the catalogue benchmark: full 1D scale with a thinned B grid, 2D at
// 16×16.
func Quick() Config {
	return Config{
		Opt:      fabric.Options{ClockSkewMax: 1024, Seed: 7},
		P1D:      512,
		Bs:       []int{1, 4, 16, 64, 256, 1024},
		FixedB:   256,
		Ps:       PowersOfTwo(4, 512),
		Side2D:   16,
		Sides2D:  []int{4, 8, 16},
		StarBCap: 256,
	}
}

// Full returns the paper-scale configuration (used by cmd/wsefigures
// -full): the complete B grid 4 B..16 KB and 2D measurements at 64×64.
func Full() Config {
	return Config{
		Opt:      fabric.Options{ClockSkewMax: 1024, Seed: 7},
		P1D:      512,
		Bs:       PowersOfTwo(1, 4096),
		FixedB:   256,
		Ps:       PowersOfTwo(4, 512),
		Side2D:   64,
		Sides2D:  []int{4, 8, 16, 32, 64},
		StarBCap: 4096,
	}
}

// Tiny returns a scaled-down configuration for unit tests: shapes small
// enough to run the whole catalogue in seconds while still exercising
// every code path.
func Tiny() Config {
	cfg := Quick()
	cfg.P1D = 128
	cfg.Bs = []int{1, 16, 128}
	cfg.FixedB = 64
	cfg.Ps = []int{4, 16, 64, 128}
	cfg.Side2D = 8
	cfg.Sides2D = []int{4, 8}
	cfg.StarBCap = 128
	return cfg
}

// params is the model parameterisation the measured runs are predicted under.
func (cfg Config) params() model.Params { return core.Params(cfg.Opt) }

// measured runs one collective point under the §8.3 measurement harness and
// returns its calibrated cycles: the compiled program is stamped into a fresh
// spec for the instrumenter to rewrite, once per value of α it tries.
func measured(req plan.Request) (float64, error) {
	pl, err := plan.Compile(req)
	if err != nil {
		return math.NaN(), err
	}
	ones := slices.Repeat([]float32{1}, req.B) // the engine copies it into every PE
	col := measure.Collective{
		Width:  pl.Spec.Width,
		Height: pl.Spec.Height,
		Build:  pl.Stamp,
		Inputs: slices.Repeat([][]float32{ones}, pl.Spec.Width*pl.Spec.Height),
	}
	res, err := measure.Measure(col, req.Opt, measure.Config{})
	if err != nil {
		return math.NaN(), err
	}
	return float64(res.Cycles), nil
}

// onesInputs builds the all-ones inputs of a request, in its kind's layout.
func onesInputs(req plan.Request) [][]float32 {
	return req.Inputs(func(n int) []float32 { return slices.Repeat([]float32{1}, n) })
}

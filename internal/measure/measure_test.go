package measure

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

func reduceCollective(p, b int) Collective {
	return Collective{
		Width:  p,
		Height: 1,
		Build: func(spec *fabric.Spec) error {
			if err := core.BuildReduce1DInto(spec, core.TwoPhase, p, b, core.Params(fabric.Options{}), fabric.OpSum); err != nil {
				return err
			}
			spec.Each(func(c mesh.Coord, _ *fabric.Program) {
				pe := spec.PE(c)
				pe.Init = make([]float32, b)
				for i := range pe.Init {
					pe.Init[i] = 1
				}
			})
			return nil
		},
	}
}

func reduce2DCollective(side, b int) Collective {
	return Collective{
		Width:  side,
		Height: side,
		Build: func(spec *fabric.Spec) error {
			if err := core.BuildReduce2DInto(spec, core.XYTwoPhase, side, side, b, core.Params(fabric.Options{}), fabric.OpSum); err != nil {
				return err
			}
			spec.Each(func(c mesh.Coord, _ *fabric.Program) {
				pe := spec.PE(c)
				pe.Init = make([]float32, b)
			})
			return nil
		},
	}
}

// TestCalibrationSpread1D mirrors the paper's §8.3 claim: despite per-PE
// clock skew, the calibrated start spread stays below 57 cycles in 1D.
func TestCalibrationSpread1D(t *testing.T) {
	res, err := Measure(reduceCollective(128, 64), fabric.Options{ClockSkewMax: 4096, Seed: 3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StartSpread > 57 {
		t.Errorf("calibrated 1D start spread %d cycles, paper achieves <57", res.StartSpread)
	}
	if res.Cycles <= 0 {
		t.Errorf("calibrated runtime %d", res.Cycles)
	}
}

// TestCalibrationSpread2D: the 2D analogue, threshold 129 cycles.
func TestCalibrationSpread2D(t *testing.T) {
	res, err := Measure(reduce2DCollective(8, 32), fabric.Options{ClockSkewMax: 4096, Seed: 9}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StartSpread > 129 {
		t.Errorf("calibrated 2D start spread %d cycles, paper achieves <129", res.StartSpread)
	}
}

func broadcastCollective(p, b int) Collective {
	return Collective{
		Width:  p,
		Height: 1,
		Build: func(spec *fabric.Spec) error {
			if err := comm.BuildFlood(spec, comm.Lane{Path: mesh.Row(0, 0, p), N: b, Base: comm.ColorBcast}, 0); err != nil {
				return err
			}
			spec.PE(mesh.Coord{}).Init = make([]float32, b)
			return nil
		},
	}
}

// TestCalibratedMatchesRaw: with no thermal noise the calibrated measurement
// is the synchronous-start cycle count of the collective alone, less the one
// cycle the fabric spends retiring the last op after its end sample — whether
// the critical path runs from the leaves to the root (a Reduce) or from the
// root to the leaves (a Broadcast), so the root shares the timebase of the
// PEs its trigger reached.
func TestCalibratedMatchesRaw(t *testing.T) {
	p, b := 64, 128
	for name, col := range map[string]Collective{"reduce": reduceCollective(p, b), "broadcast": broadcastCollective(p, b)} {
		for _, opt := range []fabric.Options{{}, {ClockSkewMax: 4096, Seed: 3}} {
			res, err := Measure(col, opt, Config{})
			if err != nil {
				t.Fatal(err)
			}
			spec := fabric.NewSpec(p, 1)
			if err := col.Build(spec); err != nil {
				t.Fatal(err)
			}
			f, err := fabric.New(spec, fabric.Options{})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != raw.Cycles-1 {
				t.Errorf("%s, skew %d: calibrated %d vs raw %d cycles", name, opt.ClockSkewMax, res.Cycles, raw.Cycles)
			}
		}
	}
}

// TestCalibrationUnderThermalNoise: with thermal no-ops the calibration
// loop may need larger α but must still terminate and produce a sane
// measurement.
func TestCalibrationUnderThermalNoise(t *testing.T) {
	res, err := Measure(reduceCollective(32, 64), fabric.Options{
		ClockSkewMax:    1024,
		ThermalNoopRate: 0.02,
		Seed:            11,
	}, Config{MaxIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Errorf("cycles %d", res.Cycles)
	}
	if res.Iterations < 1 || res.Iterations > 4 {
		t.Errorf("iterations %d", res.Iterations)
	}
}

// TestInstrumentPreservesResult: the measurement prologue must not change
// what the collective computes.
func TestInstrumentPreservesResult(t *testing.T) {
	p, b := 16, 8
	spec := fabric.NewSpec(p, 1)
	if err := reduceCollective(p, b).Build(spec); err != nil {
		t.Fatal(err)
	}
	if err := Instrument(spec, p, 1, 1); err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(spec, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	root := res.Acc[mesh.Coord{}]
	for i := range root {
		if root[i] != float32(p) {
			t.Fatalf("element %d: %v, want %v", i, root[i], float32(p))
		}
	}
	// Trigger color stays within the documented budget.
	if comm.TriggerColor >= mesh.NumColors {
		t.Fatal("trigger color out of range")
	}
}

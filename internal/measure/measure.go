// Package measure implements the paper's time-measurement methodology for
// collectives (§8.3). PEs on the wafer have independent clocks and cannot
// be started simultaneously, so the paper: (1) broadcasts a trigger from
// PE (0,0), on whose arrival each PE — PE (0,0) too, whose router turns the
// trigger back down its own ramp — samples its local reference clock
// T_R(i,j); (2) has PE (i,j) perform α·(M+N−i−j) memory writes so that
// PEs the trigger reached early wait proportionally longer; (3) samples a
// start clock, runs the collective, and samples an end clock; (4)
// calibrates every sample by subtracting T_R(i,j) + (i+j+2), the per-PE
// trigger arrival offset; and (5) adjusts the wait parameter α until the
// calibrated start spread max T_S' − min T_S' is small enough. The final
// measurement is max T_E' − min T_S'.
//
// The simulator reproduces the two effects the methodology exists to
// defeat — per-PE clock skew and thermally inserted no-ops — so the
// calibration loop here is exercised on realistic inputs, not just on an
// idealised machine.
package measure

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// Clock sample slots used by the instrumented programs.
const (
	slotRef   = 0
	slotStart = 1
	slotEnd   = 2
	numSlots  = 3
)

// Collective describes a measurable fabric program: a PE region, a builder
// that adds the collective's ops and configs to a fresh spec, and the
// initial vectors of a run by row-major PE index (fabric.NewBound; nil
// starts the PEs from the builder's bindings, if any).
type Collective struct {
	Width, Height int
	Build         func(spec *fabric.Spec) error
	Inputs        [][]float32
}

// Config tunes the calibration loop.
type Config struct {
	// MaxStartSpread is the calibrated start-time spread the loop aims
	// for. The paper reports achieving <57 cycles in 1D and <129 in 2D;
	// 0 selects 57 for single-row regions and 129 otherwise.
	MaxStartSpread int64
	// MaxIters bounds the α search (default 8).
	MaxIters int
}

func (c Config) withDefaults(height int) Config {
	if c.MaxStartSpread <= 0 {
		if height <= 1 {
			c.MaxStartSpread = 57
		} else {
			c.MaxStartSpread = 129
		}
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 8
	}
	return c
}

// Result is one calibrated measurement.
type Result struct {
	// Cycles is the calibrated collective runtime max T_E' − min T_S'.
	Cycles int64
	// StartSpread is the calibrated start-time spread max T_S' − min T_S'.
	StartSpread int64
	// Alpha is the wait parameter the calibration settled on.
	Alpha int
	// Iterations is the number of calibration runs performed.
	Iterations int
	// Raw is the fabric result of the accepted run.
	Raw *fabric.Result
}

// Measure instruments, calibrates and measures a collective on the fabric
// simulator.
func Measure(c Collective, opt fabric.Options, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(c.Height)
	best := (*Result)(nil)
	alpha := 1
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		res, err := runOnce(c, opt, alpha)
		if err != nil {
			return nil, err
		}
		res.Iterations = iter
		if best == nil || res.StartSpread < best.StartSpread {
			best = res
		}
		if best.StartSpread <= cfg.MaxStartSpread {
			return best, nil
		}
		// The calibrated start of PE (i,j) is (1−α)(i+j) + α·noise; when
		// thermal no-ops stretch the waits, increasing α overshoots more,
		// so walk α upward slowly exactly as the paper describes
		// ("initially α = 1 ... adjust the wait parameter and repeat").
		alpha++
	}
	return best, nil
}

// runOnce builds the instrumented spec for one α and executes it.
func runOnce(c Collective, opt fabric.Options, alpha int) (*Result, error) {
	spec := fabric.NewSpec(c.Width, c.Height)
	if err := c.Build(spec); err != nil {
		return nil, err
	}
	if err := Instrument(spec, c.Width, c.Height, alpha); err != nil {
		return nil, err
	}
	f, err := fabric.NewBound(spec, c.Inputs, opt)
	if err != nil {
		return nil, err
	}
	raw, err := f.Run()
	if err != nil {
		return nil, err
	}
	return Calibrate(raw, alpha)
}

// Instrument rewrites every PE program in the width×height region with
// the measurement prologue (trigger receive, reference sample, α-scaled
// busy wait, start sample) and epilogue (end sample), and overlays the 2D
// trigger flood on comm.TriggerColor.
func Instrument(spec *fabric.Spec, width, height, alpha int) error {
	if alpha < 1 {
		return fmt.Errorf("measure: alpha %d", alpha)
	}
	var ops []fabric.Op // one PE's instrumented program, while it is built
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			c := mesh.Coord{X: x, Y: y}
			// The root's router hands the trigger back down its own ramp, so
			// the root samples its reference on arrival like every other PE
			// and i+j+2 calibrates all of them onto one timebase. A root that
			// sampled on sending would sit two ramp latencies ahead of the
			// rest: every root-to-leaves collective measured 2·T_R short,
			// every leaves-to-root one 2·T_R long.
			ops = ops[:0]
			if x == 0 && y == 0 {
				ops = append(ops, fabric.Op{Kind: fabric.OpSendTrigger, Color: comm.TriggerColor})
			}
			ops = append(ops,
				fabric.Op{Kind: fabric.OpRecvTrigger, Color: comm.TriggerColor},
				fabric.Op{Kind: fabric.OpSampleClock, Slot: slotRef},
				fabric.Op{Kind: fabric.OpBusyWrite, N: alpha * (width + height - x - y)},
				fabric.Op{Kind: fabric.OpSampleClock, Slot: slotStart},
			)
			ops = append(append(ops, spec.Program(c).Ops...), fabric.Op{Kind: fabric.OpSampleClock, Slot: slotEnd})
			spec.SetClockSlots(c, numSlots)
			spec.SetOps(c, ops)

			// Trigger flood routing (same shape as the 2D broadcast).
			var accept mesh.Direction
			var fwd mesh.DirSet
			switch {
			case x == 0 && y == 0:
				accept = mesh.Ramp
				fwd = mesh.Dirs(mesh.Ramp)
				if width > 1 {
					fwd = fwd.Set(mesh.East)
				}
				if height > 1 {
					fwd = fwd.Set(mesh.South)
				}
			case y == 0:
				accept = mesh.West
				fwd = mesh.Dirs(mesh.Ramp)
				if x < width-1 {
					fwd = fwd.Set(mesh.East)
				}
				if height > 1 {
					fwd = fwd.Set(mesh.South)
				}
			default:
				accept = mesh.North
				fwd = mesh.Dirs(mesh.Ramp)
				if y < height-1 {
					fwd = fwd.Set(mesh.South)
				}
			}
			if fwd != 0 {
				spec.AddConfig(c, comm.TriggerColor, fabric.RouterConfig{Accept: accept, Forward: fwd})
			}
		}
	}
	return nil
}

// Calibrate applies the paper's clock calibration to a run's samples,
// rebasing every PE onto the trigger root's timebase:
// T'(i,j) = T(i,j) − T_ref(i,j) + (i+j+2). Subtracting the reference
// sample cancels the PE's private clock offset and the i+j+2 term adds
// back the trigger's propagation delay to (i,j), so samples of the same
// global instant calibrate to the same value (the paper states the same
// correction in §8.3).
func Calibrate(raw *fabric.Result, alpha int) (*Result, error) {
	minStart, maxStart := int64(math.MaxInt64), int64(math.MinInt64)
	maxEnd := int64(math.MinInt64)
	for c, clocks := range raw.Clocks {
		if len(clocks) < numSlots {
			return nil, fmt.Errorf("measure: PE %v has %d clock slots", c, len(clocks))
		}
		off := clocks[slotRef] - int64(c.X+c.Y+2)
		start := clocks[slotStart] - off
		end := clocks[slotEnd] - off
		if start < minStart {
			minStart = start
		}
		if start > maxStart {
			maxStart = start
		}
		if end > maxEnd {
			maxEnd = end
		}
	}
	if minStart == int64(math.MaxInt64) {
		return nil, fmt.Errorf("measure: no clock samples in result")
	}
	return &Result{
		Cycles:      maxEnd - minStart,
		StartSpread: maxStart - minStart,
		Alpha:       alpha,
		Raw:         raw,
	}, nil
}

package measure

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// Ping-pong broadcast measurement (§8.3): "we execute a broadcast from
// the leftmost PE, then from the rightmost PE. We repeat this procedure k
// times and report the end clock time - start clock time at the leftmost
// PE divided by 2k." Broadcast needs no start calibration because the
// single root serialises everything; the ping-pong cancels the drain
// asymmetry and amortises the clock-sample cost.

// Colors of the two flood directions; chosen away from the collective
// colors so the harness composes with instrumented programs.
const (
	pingColor mesh.Color = 21
	pongColor mesh.Color = 22
)

// PingPongResult reports one ping-pong measurement.
type PingPongResult struct {
	// CyclesPerBroadcast is (end-start)/(2k) at the leftmost PE.
	CyclesPerBroadcast float64
	// Iterations is k.
	Iterations int
	// Raw is the underlying fabric run.
	Raw *fabric.Result
}

// PingPongBroadcast measures a 1D broadcast of b wavelets across p PEs by
// bouncing it k times between the row ends.
func PingPongBroadcast(p, b, k int, opt fabric.Options) (*PingPongResult, error) {
	if p < 2 {
		return nil, fmt.Errorf("measure: ping-pong needs at least 2 PEs")
	}
	if b < 1 || k < 1 {
		return nil, fmt.Errorf("measure: b=%d k=%d", b, k)
	}
	spec := fabric.NewSpec(p, 1)
	path := mesh.Row(0, 0, p)

	ops := make([]fabric.Op, 0, 2*k+2) // one PE's program, while it is built
	// Every PE's ops address acc[0:b), so the engine gives each the
	// zeroed b-element vector a bounce starts from: nothing to bind.
	for v, c := range path {
		// Eastward flood on pingColor.
		switch {
		case v == 0:
			spec.AddConfig(c, pingColor, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East)})
		case v == p-1:
			spec.AddConfig(c, pingColor, fabric.RouterConfig{Accept: mesh.West, Forward: mesh.Dirs(mesh.Ramp)})
		default:
			spec.AddConfig(c, pingColor, fabric.RouterConfig{Accept: mesh.West, Forward: mesh.Dirs(mesh.East, mesh.Ramp)})
		}
		// Westward flood on pongColor.
		switch {
		case v == p-1:
			spec.AddConfig(c, pongColor, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
		case v == 0:
			spec.AddConfig(c, pongColor, fabric.RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
		default:
			spec.AddConfig(c, pongColor, fabric.RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.West, mesh.Ramp)})
		}

		// k bounces, the left end's bracketed by its two clock samples.
		ops = ops[:0]
		if v == 0 {
			ops = append(ops, fabric.Op{Kind: fabric.OpSampleClock, Slot: 0})
		}
		for it := 0; it < k; it++ {
			switch v {
			case 0:
				ops = append(ops,
					fabric.Op{Kind: fabric.OpSend, Color: pingColor, N: b},
					fabric.Op{Kind: fabric.OpRecvStore, Color: pongColor, N: b})
			case p - 1:
				ops = append(ops,
					fabric.Op{Kind: fabric.OpRecvStore, Color: pingColor, N: b},
					fabric.Op{Kind: fabric.OpSend, Color: pongColor, N: b})
			default:
				ops = append(ops,
					fabric.Op{Kind: fabric.OpRecvStore, Color: pingColor, N: b},
					fabric.Op{Kind: fabric.OpRecvStore, Color: pongColor, N: b})
			}
		}
		if v == 0 {
			ops = append(ops, fabric.Op{Kind: fabric.OpSampleClock, Slot: 1})
			spec.SetClockSlots(c, 2)
		}
		spec.Append(c, ops...)
	}

	f, err := fabric.New(spec, opt)
	if err != nil {
		return nil, err
	}
	raw, err := f.Run()
	if err != nil {
		return nil, err
	}
	clocks := raw.Clocks[path[0]]
	return &PingPongResult{
		CyclesPerBroadcast: float64(clocks[1]-clocks[0]) / float64(2*k),
		Iterations:         k,
		Raw:                raw,
	}, nil
}

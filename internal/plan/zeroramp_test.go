package plan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
)

// TestZeroLatencyRampIsPricedAsItRuns holds a zero-latency ramp (TR -1) to
// how the engine runs it: a push is visible the next cycle, so a wavelet
// still takes a cycle down the ramp and a cycle up, as under T_R = 1. The
// 128-PE, 1 KB chain runs 765 cycles and is priced at 765, and over every
// row, algorithm and AllGather or ReduceScatter schedule of a few
// geometries, a program that runs at its estimate under T_R = 1 runs at its
// estimate under TR -1 too.
func TestZeroLatencyRampIsPricedAsItRuns(t *testing.T) {
	zero := fabric.Options{TR: -1}
	chain := Request{Kind: Reduce1D, Alg: core.Chain, P: 128, B: 256, Opt: zero}
	if cycles, predicted, err := zeroRampRun(chain, ""); err != nil || cycles != 765 || predicted != 765 {
		t.Errorf("chain p=128 b=256 under TR -1: %d cycles, predicted %v (%v); want 765 both", cycles, predicted, err)
	}
	for _, g := range []Request{{P: 6, Width: 3, Height: 2, B: 14}, {P: 16, Width: 4, Height: 4, B: 16}, {P: 9, Width: 5, Height: 3, B: 40}} {
		for i := range Kinds {
			for _, req := range requestsOf(&Kinds[i], g) {
				if req.Validate() != nil {
					continue
				}
				var schedules []core.Pattern
				switch req.Kind {
				case AllGather:
					schedules = allGatherSchedules(req)
				case ReduceScatter:
					schedules = []core.Pattern{core.Ring, core.RingStream}
				}
				for _, alg := range append([]core.Pattern{""}, schedules...) {
					one, zero := req, req
					one.Opt.TR, zero.Opt.TR = 1, -1
					c1, p1, err := zeroRampRun(one, alg)
					if err != nil {
						continue // a shape the row's program does not take, ring-dp on an odd row
					}
					c0, p0, err := zeroRampRun(zero, alg)
					if err != nil {
						t.Fatalf("%v %s: runs under T_R = 1, not under TR -1: %v", KeyOf(zero), alg, err)
					}
					if float64(c1) == p1 && float64(c0) != p0 {
						t.Errorf("%v %s: %d cycles at its estimate under T_R = 1, %d under TR -1, predicted %v",
							KeyOf(zero), alg, c1, c0, p0)
					}
				}
			}
		}
	}
}

// zeroRampRun runs req — compiled as Auto resolves it when alg is empty,
// else under the ReduceScatter or AllGather schedule alg — and returns its
// cycles and its estimate.
func zeroRampRun(req Request, alg core.Pattern) (int64, float64, error) {
	var rep *core.Report
	var err error
	if alg == "" {
		var pl *Plan
		if pl, err = Compile(req); err == nil {
			rep, err = pl.Execute(req.Inputs(ramp))
		}
	} else {
		rep, err = runSchedule(req, alg, req.Inputs(ramp))
	}
	if err != nil {
		return 0, 0, err
	}
	return rep.Cycles, rep.Predicted, nil
}

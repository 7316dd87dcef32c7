package plan

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// starStreamShapes are the rows of the streamed middle root's test: 2 to 20
// PEs and a few long rows up to 300, each at B = P·m + r for m up to 12
// elements a PE and r of 0, 1 and P/2 — balanced chunks, one longer chunk,
// and half of them longer.
func starStreamShapes() [][2]int {
	var shapes [][2]int
	ps := []int{33, 64, 100, 256, 300}
	for p := 20; p >= 2; p-- {
		ps = append([]int{p}, ps...)
	}
	for _, p := range ps {
		for m := 1; m <= 12; m++ {
			for _, r := range []int{0, 1, p / 2} {
				if r == 1 && p == 2 {
					continue // P/2 again
				}
				shapes = append(shapes, [2]int{p, p*m + r})
			}
		}
	}
	return shapes
}

// starStreamVariants are the engines the streamed middle root must run on:
// the default, queues shallower and deeper than it, other ramp latencies,
// the literal zero-latency ramp included, clock skew with thermal no-ops,
// task wake-up stalls and the sharded engine.
func starStreamVariants() []fabric.Options {
	return []fabric.Options{
		{}, {QueueCap: 1}, {QueueCap: 2}, {QueueCap: 3}, {QueueCap: 8}, {QueueCap: 16},
		{TR: -1}, {TR: 1}, {TR: 3}, {TR: 4},
		{ClockSkewMax: 50, ThermalNoopRate: 0.2, Seed: 7}, {TaskActivation: 3}, {Shards: 3},
	}
}

// TestStarStreamRunsAtItsEstimate holds the streamed middle-root AllGather to
// its form and its gate. Under every variant engine, wherever the gate admits
// it, it runs without deadlock and leaves the inputs' concatenation on every
// PE bit for bit, and it runs at Predict to the cycle — under thermal no-ops
// too, which land at random, only the bits. -short walks every seventh row,
// the race detector every 29th.
func TestStarStreamRunsAtItsEstimate(t *testing.T) {
	stride := 1
	switch {
	case raceEnabled:
		stride = 29
	case testing.Short():
		stride = 7
	}
	admitted := 0
	for i, s := range starStreamShapes() {
		if i%stride != 0 {
			continue
		}
		if !math.IsInf(core.PredictAllGather(core.StarStream, s[0], s[1], core.Params(fabric.Options{})), 1) {
			admitted++
		}
		t.Run(fmt.Sprintf("p=%d/b=%d", s[0], s[1]), func(t *testing.T) {
			t.Parallel()
			starStreamShape(t, s[0], s[1])
		})
	}
	if admitted == 0 {
		t.Error("the gate admitted no shape of the walk")
	}
}

func starStreamShape(t *testing.T, p, b int) {
	for _, opt := range starStreamVariants() {
		req := Request{Kind: AllGather, P: p, B: b, Opt: opt}
		if math.IsInf(core.PredictAllGather(core.StarStream, p, b, core.Params(opt)), 1) {
			continue
		}
		inputs := randomInputs(req, int64(p*10007+b))
		label := fmt.Sprintf("p=%d b=%d under %+v", p, b, opt)
		rep, err := runSchedule(req, core.StarStream, inputs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := slices.Concat(inputs...)
		for x := 0; x < p; x++ {
			sameBitsVec(t, want, rep.All[mesh.Coord{X: x}], fmt.Sprintf("%s: PE %d", label, x))
		}
		if opt.ThermalNoopRate == 0 && float64(rep.Cycles) != rep.Predicted {
			t.Errorf("%s: star-stream ran %d cycles, predicted %v", label, rep.Cycles, rep.Predicted)
		}
	}
}

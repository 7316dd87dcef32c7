package plan

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// ringStreamShapes are the rows of the streamed ring's test: 2 to 20 PEs and
// a few long rows, each at B = P·m + r for m up to 12 elements a PE and r of
// 0, 1 and P/2 — balanced chunks, one longer chunk, and half of them longer.
func ringStreamShapes() [][2]int {
	var shapes [][2]int
	ps := []int{33, 64, 100, 256}
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

// ringStreamVariants are the engines the streamed ring must survive: queues
// shallower and deeper than the default, other ramp latencies, the literal
// zero-latency ramp included, clock skew with thermal no-ops, task wake-up
// stalls and the sharded engine.
func ringStreamVariants() []fabric.Options {
	return []fabric.Options{
		{QueueCap: 1}, {QueueCap: 2}, {QueueCap: 3}, {QueueCap: 8}, {QueueCap: 16},
		{TR: -1}, {TR: 1}, {TR: 3}, {TR: 4},
		{ClockSkewMax: 50, ThermalNoopRate: 0.2, Seed: 7}, {TaskActivation: 3}, {Shards: 3},
	}
}

// TestRingStreamRunsAtItsEstimate holds the streamed ring reduce-scatter to
// its form and its gate. Under the default options, wherever the gate admits
// it, it runs at Predict to the cycle, leaves chunk j on PE j as a plain loop
// over the inputs combines it, and leaves the very bits the ring does on
// inputs whose combination depends on the order. Under every variant engine,
// every Auto ReduceScatter — and the split AllReduce, whose rows may stream —
// finishes with the host loop's result and without deadlock, and wherever
// Auto streams the ring it runs no slower than the ring (under thermal
// no-ops, summed over a few seeds). -short walks every seventh row, the race
// detector every 29th.
func TestRingStreamRunsAtItsEstimate(t *testing.T) {
	stride := 1
	switch {
	case raceEnabled:
		stride = 29
	case testing.Short():
		stride = 7
	}
	admitted := 0
	for i, s := range ringStreamShapes() {
		if i%stride != 0 {
			continue
		}
		if !math.IsInf(core.PredictReduceScatter(core.RingStream, s[0], s[1], core.Params(fabric.Options{})), 1) {
			admitted++
		}
		t.Run(fmt.Sprintf("p=%d/b=%d", s[0], s[1]), func(t *testing.T) {
			t.Parallel()
			ringStreamShape(t, s[0], s[1])
		})
	}
	if admitted == 0 {
		t.Error("the gate admitted no shape of the walk")
	}
}

// noiseSeeds is how many seeds of a noisy engine the streamed ring's runs are
// summed over before they are compared with the ring's.
const noiseSeeds = 8

func ringStreamShape(t *testing.T, p, b int) {
	seed := int64(p*10007 + b)
	inputs, want := gridInputs(p, b, fabric.OpSum, seed)
	req := Request{Kind: ReduceScatter, P: p, B: b}
	if pr := core.Params(req.Opt); !math.IsInf(core.PredictReduceScatter(core.RingStream, p, b, pr), 1) {
		for _, op := range []fabric.ReduceOp{fabric.OpSum, fabric.OpMax} {
			req.Op = op
			in, w := gridInputs(p, b, op, seed+int64(op))
			rep := runRS(t, req, core.RingStream, in, w)
			if float64(rep.Cycles) != rep.Predicted {
				t.Errorf("%s p=%d b=%d: ring-stream ran %d cycles, predicted %v", op, p, b, rep.Cycles, rep.Predicted)
			}
		}
		// On inputs whose sum depends on the order, the ring's bits.
		req.Op = fabric.OpSum
		noisy := randomInputs(req, seed)
		ring, err := runSchedule(req, core.Ring, noisy)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := runSchedule(req, core.RingStream, noisy)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < p; j++ {
			c := mesh.Coord{X: j}
			sameBitsVec(t, ring.All[c], streamed.All[c], fmt.Sprintf("p=%d b=%d: PE %d against the ring", p, b, j))
		}
	}
	for _, opt := range ringStreamVariants() {
		req := Request{Kind: ReduceScatter, P: p, B: b, Op: fabric.OpSum, Opt: opt}
		res := req.Resolve()
		rep := runRS(t, req, "", inputs, want)
		if res.Alg == core.RingStream {
			streamed, ring := rep.Cycles, runRS(t, req, core.Ring, inputs, want).Cycles
			if streamed > ring && opt.ThermalNoopRate > 0 {
				// Thermal no-ops land on the two programs at random: where
				// the margin is a cycle either can draw the worse run, so
				// they are compared over noiseSeeds seeds.
				for i := 1; i < noiseSeeds; i++ {
					req.Opt.Seed++
					streamed += runRS(t, req, "", inputs, want).Cycles
					ring += runRS(t, req, core.Ring, inputs, want).Cycles
				}
			}
			if streamed > ring {
				t.Errorf("p=%d b=%d under %+v: Auto streamed the ring in %d cycles, the ring takes %d", p, b, opt, streamed, ring)
			}
		}
		if p <= 20 {
			grid := Request{Kind: AllReduce2D, Alg2D: core.Split, Width: p, Height: 2, B: b, Op: fabric.OpSum, Opt: opt}
			in, w := gridInputs(2*p, b, fabric.OpSum, seed)
			runGrid(t, grid, in, w)
		}
	}
}

// runRS runs a ReduceScatter request — under Auto's pick when alg is empty,
// else under alg built directly through core — and holds chunk j of PE j to
// want's, bit for bit.
func runRS(t *testing.T, req Request, alg core.Pattern, inputs [][]float32, want []float32) *core.Report {
	t.Helper()
	label := fmt.Sprintf("%v under %q", KeyOf(req), alg)
	var rep *core.Report
	var err error
	if alg == "" {
		var pl *Plan
		if pl, err = Compile(req); err == nil {
			label = fmt.Sprintf("%v (%s)", KeyOf(req), pl.Alg)
			rep, err = pl.Execute(inputs)
		}
	} else {
		rep, err = runSchedule(req, alg, inputs)
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	off, sz := core.Chunks(req.P, req.B)
	for j := 0; j < req.P; j++ {
		got := rep.All[mesh.Coord{X: j}]
		sameBitsVec(t, want[off[j]:off[j]+sz[j]], got[off[j]:off[j]+sz[j]], fmt.Sprintf("%s: PE %d", label, j))
	}
	return rep
}

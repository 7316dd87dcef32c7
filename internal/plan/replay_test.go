package plan

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

func poolTestInputs(req Request) [][]float32 {
	fill := func(v []float32, i int) {
		for j := range v {
			v[j] = float32(i%7) + float32(j%3)*0.5
		}
	}
	switch req.Kind {
	case Gather, AllGather:
		// Chunked kinds take per-PE chunks totalling B elements.
		_, sz := core.Chunks(req.P, req.B)
		out := make([][]float32, req.P)
		for i := range out {
			out[i] = make([]float32, sz[i])
			fill(out[i], i)
		}
		return out
	}
	n := req.P
	switch req.Kind {
	case Broadcast1D, Broadcast2D, Scatter:
		n = 1
	case Reduce2D, AllReduce2D:
		n = req.Width * req.Height
	}
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, req.B)
		fill(out[i], i)
	}
	return out
}

func sameReport(t *testing.T, want, got *core.Report, label string) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles %d, want %d", label, got.Cycles, want.Cycles)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	if len(got.All) != len(want.All) {
		t.Fatalf("%s: %d PEs, want %d", label, len(got.All), len(want.All))
	}
	for c, w := range want.All {
		g := got.All[c]
		if len(g) != len(w) {
			t.Fatalf("%s: PE %v acc length %d, want %d", label, c, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: PE %v acc[%d] = %v, want %v", label, c, i, g[i], w[i])
			}
		}
	}
}

// TestReplayConcurrentBitIdentical hammers one plan from many goroutines —
// the Session worker-pool pattern — and asserts every replay, whether it
// ran the engine, recorded or walked the tape, is bit-identical to the
// ExecuteUnpooled reference. The options enable clock skew and thermal
// no-ops, so the per-PE RNG streams are part of what must match. Run under
// -race in CI, it doubles as the proof that concurrent engine runs, the
// recording hand-over and the sharded engine are data-race free.
func TestReplayConcurrentBitIdentical(t *testing.T) {
	reqs := []Request{
		{Kind: Reduce1D, Alg: core.Tree, P: 24, B: 12, Op: fabric.OpSum,
			Opt: fabric.Options{ClockSkewMax: 512, ThermalNoopRate: 0.05, Seed: 31}},
		{Kind: AllReduce1D, Alg: core.Chain, P: 16, B: 8, Op: fabric.OpMax,
			Opt: fabric.Options{ThermalNoopRate: 0.02, Seed: 9}},
		{Kind: Reduce2D, Alg2D: core.XYTree, Width: 6, Height: 5, B: 6, Op: fabric.OpSum,
			Opt: fabric.Options{ClockSkewMax: 64, Seed: 3, Shards: 3}},
	}
	for _, req := range reqs {
		pl, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		inputs := poolTestInputs(req)
		want, err := pl.ExecuteUnpooled(inputs)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 6; rep++ {
					// Every other goroutine goes in through the batch path,
					// racing the single executions for the recording.
					var got []*core.Report
					var err error
					if g%2 == 1 {
						got, err = pl.ExecuteBatch(nil, [][][]float32{inputs, inputs}, ExecOptions{})
					} else {
						got = make([]*core.Report, 1)
						got[0], err = pl.Execute(inputs)
					}
					if err != nil {
						errs <- err
						return
					}
					for _, got := range got {
						if got.Cycles != want.Cycles || got.Stats != want.Stats {
							errs <- fmt.Errorf("%s: replay diverged: cycles %d vs %d, stats %+v vs %+v",
								req.Kind, got.Cycles, want.Cycles, got.Stats, want.Stats)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// One more replay, deep-compared.
		got, err := pl.Execute(inputs)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, want, got, string(req.Kind))
	}
}

// TestReplayThroughSession: the public Session path (bounded worker pool +
// plan cache) replays concurrently with bit-identical results to the first
// run.
func TestReplayThroughSession(t *testing.T) {
	sess := NewSession(16, 4)
	req := Request{Kind: Reduce1D, Alg: core.TwoPhase, P: 32, B: 16, Op: fabric.OpSum,
		Opt: fabric.Options{ClockSkewMax: 128, ThermalNoopRate: 0.03, Seed: 77}}
	inputs := poolTestInputs(req)
	want, err := sess.Run(req, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				got, err := sess.Run(req, inputs)
				if err != nil {
					errs <- err
					return
				}
				if got.Cycles != want.Cycles || got.Stats != want.Stats {
					errs <- fmt.Errorf("session replay diverged: %d vs %d cycles", got.Cycles, want.Cycles)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Misses != 1 {
		t.Errorf("plan compiled %d times, want 1", st.Misses)
	}
}

// TestShardedPlansBitIdenticalAllKinds is the acceptance property test: for
// every collective kind the suite compiles, the sharded engine must produce
// bit-identical cycle counts, stats and accumulator contents to the serial
// engine.
func TestShardedPlansBitIdenticalAllKinds(t *testing.T) {
	kinds := []Request{
		{Kind: Reduce1D, Alg: core.AutoGen, P: 21, B: 9, Op: fabric.OpSum},
		{Kind: AllReduce1D, Alg: core.Ring, P: 12, B: 24, Op: fabric.OpSum},
		{Kind: Broadcast1D, P: 19, B: 7},
		{Kind: Reduce2D, Alg2D: core.XYTwoPhase, Width: 7, Height: 6, B: 5, Op: fabric.OpSum},
		{Kind: AllReduce2D, Alg2D: core.Snake, Width: 4, Height: 5, B: 10, Op: fabric.OpSum},
		{Kind: Broadcast2D, Width: 5, Height: 7, B: 8},
		{Kind: Scatter, P: 9, B: 31},
		{Kind: Gather, P: 9, B: 31},
		{Kind: ReduceScatter, P: 8, B: 19, Op: fabric.OpSum},
		{Kind: AllGather, P: 7, B: 23},
		{Kind: AllReduceMidRoot, Alg: core.Tree, P: 17, B: 11, Op: fabric.OpMin},
	}
	for _, base := range kinds {
		serialReq := base
		serialReq.Opt.Seed = 5
		serialReq.Opt.ClockSkewMax = 100
		pl, err := Compile(serialReq)
		if err != nil {
			t.Fatalf("%s: %v", base.Kind, err)
		}
		inputs := poolTestInputs(serialReq)
		want, err := pl.ExecuteUnpooled(inputs)
		if err != nil {
			t.Fatalf("%s serial: %v", base.Kind, err)
		}
		for _, shards := range []int{2, 5} {
			req := serialReq
			req.Opt.Shards = shards
			spl, err := Compile(req)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", base.Kind, shards, err)
			}
			got, err := spl.ExecuteUnpooled(inputs)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", base.Kind, shards, err)
			}
			sameReport(t, want, got, fmt.Sprintf("%s shards=%d", base.Kind, shards))
		}
	}
}

// TestSharded2DGridCompletes: a measured 2D reduce on the paper's full
// 512×512 wafer — 262,144 simulated PEs — compiles, runs sharded across
// row bands, and produces the exact reduction. This is the scale the
// ROADMAP's serving items need; it must stay comfortably inside the
// default go test timeout.
func TestSharded2DGridCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("262k-PE simulation in -short mode")
	}
	if raceEnabled {
		t.Skip("262k-PE simulation under the race detector; smaller concurrent tests cover the races")
	}
	const side = 512
	req := Request{Kind: Reduce2D, Alg2D: core.XYTree, Width: side, Height: side, B: 4,
		Op: fabric.OpSum, Opt: fabric.Options{Shards: 8}}
	pl, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float32, side*side)
	one := []float32{1, 1, 1, 1}
	for i := range inputs {
		inputs[i] = one
	}
	rep, err := pl.Execute(inputs)
	if err != nil {
		t.Fatal(err)
	}
	root := rep.All[mesh.Coord{}]
	for i, v := range root {
		if v != side*side {
			t.Fatalf("root[%d] = %v, want %d", i, v, side*side)
		}
	}
	if rep.Cycles <= 0 {
		t.Fatal("no cycles measured")
	}
	t.Logf("512x512 reduce2d: %d cycles, %d hops", rep.Cycles, rep.Stats.Hops)
}

// TestShardsOneIsSerial compiles a plan large enough for the engine to
// auto-tune into bands (64×64 PEs) with Shards: 1, and its fabric is the
// serial engine's one band; a negative Shards asks for the same. The request's
// key says so: shards=1, where the auto-tuned request keys shards=0.
func TestShardsOneIsSerial(t *testing.T) {
	base := Request{Kind: Reduce2D, Alg2D: core.XYTree, Width: 64, Height: 64, B: 1}
	auto := KeyOf(base).String()
	for _, shards := range []int{1, -3} {
		req := base
		req.Opt.Shards = shards
		pl, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fabric.New(pl.Spec, pl.Opt)
		if err != nil {
			t.Fatal(err)
		}
		if n := f.Shards(); n != 1 {
			t.Errorf("Shards: %d compiles a plan whose fabric runs %d bands", shards, n)
		}
		key := KeyOf(req).String()
		if !strings.HasSuffix(key, ";shards=1") || key == auto {
			t.Errorf("Shards: %d keys as %s (auto-tuned: %s)", shards, key, auto)
		}
	}
	if !strings.HasSuffix(auto, ";shards=0") {
		t.Errorf("the auto-tuned request keys as %s", auto)
	}
}

package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// tapeShapes mirrors statsShapes of internal/fabric's golden test (which an
// in-package test here cannot import): one concrete shape per kind.
func tapeShapes() []Request {
	return []Request{
		{Kind: Reduce1D, Alg: core.TwoPhase, P: 24, B: 32},
		{Kind: AllReduce1D, Alg: core.Tree, P: 17, B: 24},
		{Kind: AllReduceMidRoot, Alg: core.Chain, P: 15, B: 20},
		{Kind: Broadcast1D, P: 19, B: 33},
		{Kind: Scatter, P: 12, B: 50},
		{Kind: Gather, P: 12, B: 50},
		{Kind: ReduceScatter, P: 9, B: 40},
		{Kind: AllGather, P: 9, B: 40},
		{Kind: Reduce2D, Alg2D: core.XYTree, Width: 5, Height: 4, B: 16},
		{Kind: AllReduce2D, Alg2D: core.Snake, Width: 4, Height: 3, B: 12},
		{Kind: Broadcast2D, Width: 6, Height: 3, B: 21},
	}
}

// tapeVariants mirrors statsVariants likewise: the nine engine
// configurations that steer the cycle loop down its different paths.
func tapeVariants() []fabric.Options {
	return []fabric.Options{
		{},
		{ClockSkewMax: 50, ThermalNoopRate: 0.2, Seed: 7},
		{TaskActivation: 3},
		{QueueCap: 1},
		{QueueCap: 2},
		{QueueCap: 8},
		{TR: -1},
		{Shards: 1},
		{Shards: 3},
	}
}

// randomInputs are inputs of req's layout whose combination depends on the
// order (denseInputs' normals).
func randomInputs(req Request, seed int64) [][]float32 {
	return denseInputs(req, seed, normals)[0]
}

func sameBitsVec(t *testing.T, want, got []float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// sameReportBits compares a report in either layout with a map-shaped
// reference: cycles, full Stats, the PE set and every accumulator bit.
func sameReportBits(t *testing.T, want, got *core.Report, label string) {
	t.Helper()
	if got.Cycles != want.Cycles || got.Stats != want.Stats || got.Predicted != want.Predicted {
		t.Fatalf("%s: cycles %d stats %+v predicted %v, want %d %+v %v", label, got.Cycles, got.Stats, got.Predicted, want.Cycles, want.Stats, want.Predicted)
	}
	sameBitsVec(t, want.Root, got.Root, label+" root")
	if col := got.Columnar; col != nil {
		if got.All != nil || len(col.Coords) != len(want.All) || len(col.Off) != len(col.Coords)+1 {
			t.Fatalf("%s: columnar report with %d coords, %d offsets, All %v; want %d PEs", label, len(col.Coords), len(col.Off), got.All != nil, len(want.All))
		}
		for _, c := range col.Coords {
			sameBitsVec(t, want.All[c], col.At(c), fmt.Sprintf("%s PE %v", label, c))
		}
		return
	}
	if len(got.All) != len(want.All) {
		t.Fatalf("%s: %d PEs, want %d", label, len(got.All), len(want.All))
	}
	for c, w := range want.All {
		sameBitsVec(t, w, got.All[c], fmt.Sprintf("%s PE %v", label, c))
	}
}

// taped executes the plan until its tape is recorded and returns it.
func taped(t *testing.T, pl *Plan, inputs [][]float32) *fabric.Tape {
	t.Helper()
	for run := 0; run < 2; run++ {
		if _, err := pl.Execute(inputs); err != nil {
			t.Fatalf("run %d: %v", run+1, err)
		}
	}
	tape := pl.Tape()
	if tape == nil {
		t.Fatalf("no tape after two executions (ran %v)", pl.replay.ran.Load())
	}
	return tape
}

// matchesEngine is the differential property on one plan: its first run, its
// recording run and its tape replays — Execute, columnar, batch, columnar
// batch — all equal ExecuteUnpooled on the same inputs, bit for bit.
func matchesEngine(t *testing.T, pl *Plan, req Request, label string) {
	t.Helper()
	in1, in2, in3 := randomInputs(req, 1), randomInputs(req, 2), randomInputs(req, 3)
	reference := func(in [][]float32) *core.Report {
		rep, err := pl.ExecuteUnpooled(in)
		if err != nil {
			t.Fatalf("%s: engine: %v", label, err)
		}
		return rep
	}
	want1, want2, want3 := reference(in1), reference(in2), reference(in3)
	for run, mode := range []string{"first", "recording"} {
		rep, err := pl.Execute(in1)
		if err != nil {
			t.Fatalf("%s: %s run: %v", label, mode, err)
		}
		sameReportBits(t, want1, rep, fmt.Sprintf("%s %s run", label, mode))
		if taped := pl.replay.tape.Load() != nil; taped != (run == 1) {
			t.Fatalf("%s: tape %v after the %s run", label, taped, mode)
		}
	}
	before := pl.replay.own.Load()
	rep, err := pl.Execute(in2)
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	sameReportBits(t, want2, rep, label+" replay")
	if rep, err = pl.ExecuteCtx(context.Background(), in3, ExecOptions{Columnar: true}); err != nil {
		t.Fatalf("%s: columnar replay: %v", label, err)
	}
	sameReportBits(t, want3, rep, label+" columnar replay")
	for _, columnar := range []bool{false, true} {
		reps, err := pl.ExecuteBatch(context.Background(), [][][]float32{in3, in1, in2}, ExecOptions{Columnar: columnar})
		if err != nil {
			t.Fatalf("%s: batch: %v", label, err)
		}
		for i, want := range []*core.Report{want3, want1, want2} {
			sameReportBits(t, want, reps[i], fmt.Sprintf("%s batch[%d] columnar=%v", label, i, columnar))
		}
	}
	if got := pl.replay.own.Load() - before; got != 8 {
		t.Fatalf("%s: %d of the 8 reports came from the tape", label, got)
	}

}

// TestTapeMatchesEngine runs the property over all 11 kinds under the nine
// engine variants, the non-sum operators, the ring and generated algorithms,
// and a grid wide enough that the sharded reference engine genuinely steps
// its bands in parallel while the recording stays on one goroutine.
func TestTapeMatchesEngine(t *testing.T) {
	var reqs []Request
	for _, shape := range tapeShapes() {
		for _, opt := range tapeVariants() {
			req := shape
			req.Opt = opt
			reqs = append(reqs, req)
		}
	}
	reqs = append(reqs,
		Request{Kind: Reduce1D, Alg: core.Chain, P: 13, B: 9, Op: fabric.OpMax},
		Request{Kind: AllReduce1D, Alg: core.Star, P: 7, B: 11, Op: fabric.OpMin},
		Request{Kind: Reduce1D, Alg: core.AutoGen, P: 21, B: 9},
		Request{Kind: AllReduce1D, Alg: core.Ring, P: 12, B: 24},
		Request{Kind: AllReduce1D, Alg: core.RingDP, P: 8, B: 24, Op: fabric.OpMax, Opt: fabric.Options{QueueCap: 2}},
		Request{Kind: ReduceScatter, P: 6, B: 31, Op: fabric.OpMin},
		Request{Kind: AllReduce2D, Alg2D: core.XYTwoPhase, Width: 18, Height: 16, B: 6, Opt: fabric.Options{Shards: 3}},
	)
	for _, req := range reqs {
		label := fmt.Sprintf("%s %s%s %s %+v", req.Kind, req.Alg, req.Alg2D, req.Op, req.Opt)
		pl, err := Compile(req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		matchesEngine(t, pl, req, label)
	}
}

// TestTapeCarriesClockSamples: the clock samples of an instrumented program
// are part of its timing, so the tape reproduces them with the cycle count.
func TestTapeCarriesClockSamples(t *testing.T) {
	req := Request{Kind: Reduce1D, Alg: core.Tree, P: 11, B: 7, Opt: fabric.Options{ClockSkewMax: 300, ThermalNoopRate: 0.1, Seed: 4}}
	compiled, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	pl := &Plan{Key: compiled.Key, Kind: req.Kind, P: req.P, B: req.B, Opt: compiled.Opt, Predicted: compiled.Predicted,
		Spec: fabric.NewSpec(req.P, 1)}
	if err := compiled.Stamp(pl.Spec); err != nil {
		t.Fatal(err)
	}
	pl.Spec.Each(func(c mesh.Coord, prog *fabric.Program) {
		pl.Spec.SetClockSlots(c, 2)
		pl.Spec.SetOps(c, append(append([]fabric.Op{{Kind: fabric.OpSampleClock, Slot: 0}}, prog.Ops...), fabric.Op{Kind: fabric.OpSampleClock, Slot: 1}))
	})
	matchesEngine(t, pl, req, "instrumented reduce")

	in := randomInputs(req, 9)
	s, bound, err := pl.bind(in)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.NewBound(s, bound, pl.Opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	tape := pl.Tape()
	acc := make([]float32, tape.AccLen())
	pl.replay.tape.Load().bind(in, acc)
	got := tape.Run(acc)
	if len(got.Clocks) != req.P || len(want.Clocks) != req.P {
		t.Fatalf("clock samples of %d PEs on the tape, %d on the engine, want %d", len(got.Clocks), len(want.Clocks), req.P)
	}
	for c, w := range want.Clocks {
		if fmt.Sprint(got.Clocks[c]) != fmt.Sprint(w) {
			t.Errorf("PE %v sampled %v on the tape, %v on the engine", c, got.Clocks[c], w)
		}
	}
}

// TestTapeTracerStaysOnEngine: a plan carrying a Tracer exists to watch the
// engine; it never records, even when it carries a tape, and keeps emitting
// events.
func TestTapeTracerStaysOnEngine(t *testing.T) {
	tr := &fabric.Tracer{}
	req := Request{Kind: Reduce1D, Alg: core.Chain, P: 6, B: 4, Opt: fabric.Options{Tracer: tr}}
	pl, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := randomInputs(req, 1)
	want, err := pl.ExecuteUnpooled(in)
	if err != nil {
		t.Fatal(err)
	}
	perRun := len(tr.Events)
	if perRun == 0 {
		t.Fatal("the tracer saw nothing")
	}
	for run := 1; run <= 4; run++ {
		rep, err := pl.Execute(in)
		if err != nil {
			t.Fatal(err)
		}
		sameReportBits(t, want, rep, fmt.Sprintf("traced run %d", run))
		if got := len(tr.Events); got != (run+1)*perRun {
			t.Fatalf("run %d left %d trace events, want %d", run, got, (run+1)*perRun)
		}
	}
	if pl.replay.tape.Load() != nil || pl.replay.own.Load() != 0 {
		t.Fatalf("traced plan: tape %v, replays %d", pl.replay.tape.Load() != nil, pl.replay.own.Load())
	}

	// A cache's plan is taped at the miss; the Tracer the request carries is
	// attached after, and keeps every execution on the engine.
	cache := NewCache(1)
	if pl, err = cache.Get(req); err != nil {
		t.Fatal(err)
	}
	if pl.replay.tape.Load() == nil || pl.Opt.Tracer != tr {
		t.Fatalf("cached traced plan: tape %v, tracer attached %v", pl.replay.tape.Load() != nil, pl.Opt.Tracer == tr)
	}
	before := len(tr.Events)
	for run := 1; run <= 2; run++ {
		rep, err := pl.Execute(in)
		if err != nil {
			t.Fatal(err)
		}
		sameReportBits(t, want, rep, fmt.Sprintf("cached traced run %d", run))
	}
	if got := len(tr.Events) - before; got != 2*perRun {
		t.Fatalf("two cached traced runs left %d trace events, want %d", got, 2*perRun)
	}
	if st := cache.Stats(); st.TapeReplays != 0 || st.TapeDeclined != 1 || st.TapeRecords != 0 {
		t.Fatalf("cached traced plan: %+v; want it counted declined, never replayed", st)
	}
}

// TestTapeOverCapDeclinedOnce: a program whose dataflow exceeds the cap is
// found out at the miss, without a wasted run, counted declined once, and
// stays on the engine.
func TestTapeOverCapDeclinedOnce(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("three million-cycle runs on one goroutine: not in -short mode or under the race detector")
	}
	req := Request{Kind: Broadcast1D, P: 2, B: fabric.MaxTapeEvents/2 + 1} // B loads at the root, B stores at its neighbour
	cache := NewCache(1)
	pl, err := cache.Get(req)
	if err != nil {
		t.Fatal(err)
	}
	in := poolTestInputs(req)
	var first *core.Report
	for run := 1; run <= 3; run++ {
		rep, err := pl.ExecuteCtx(context.Background(), in, ExecOptions{Columnar: true})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
		}
		if rep.Cycles != first.Cycles || rep.Stats != first.Stats || rep.Root[req.B-1] != in[0][req.B-1] {
			t.Fatalf("run %d: cycles %d stats %+v, first run %d %+v", run, rep.Cycles, rep.Stats, first.Cycles, first.Stats)
		}
	}
	if st := cache.Stats(); pl.replay.tape.Load() != nil || st.TapeDeclined != 1 || st.TapeRecords != 0 || st.TapeReplays != 0 {
		t.Fatalf("over-cap plan: tape %v, %+v", pl.replay.tape.Load() != nil, st)
	}
}

// TestTapeLengthMismatchFallsBack: the tape's accumulator layout follows the
// input lengths it was recorded under. A plan rebound to longer vectors
// (its exported fields allow it) runs those on the engine, and still replays
// the recorded lengths from the tape.
func TestTapeLengthMismatchFallsBack(t *testing.T) {
	req := Request{Kind: Reduce1D, Alg: core.TwoPhase, P: 8, B: 6}
	pl, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	taped(t, pl, randomInputs(req, 1))
	longer := req
	longer.B = 10 // the program still reduces the first 6 elements; 4 more ride along untouched
	pl.B = longer.B
	in := randomInputs(longer, 2)
	want, err := pl.ExecuteUnpooled(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, columnar := range []bool{false, true} {
		rep, err := pl.ExecuteCtx(context.Background(), in, ExecOptions{Columnar: columnar})
		if err != nil {
			t.Fatal(err)
		}
		sameReportBits(t, want, rep, fmt.Sprintf("longer vectors columnar=%v", columnar))
	}
	reps, err := pl.ExecuteBatch(nil, [][][]float32{in, in}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameReportBits(t, want, reps[1], "longer vectors batch")
	if len(want.Root) != longer.B || pl.replay.own.Load() != 1 { // the recording run's own report
		t.Fatalf("root of %d elements, %d tape replays; want %d and 1", len(want.Root), pl.replay.own.Load(), longer.B)
	}
	pl.B = req.B
	in = randomInputs(req, 3)
	if want, err = pl.ExecuteUnpooled(in); err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	sameReportBits(t, want, rep, "recorded lengths again")
	if pl.replay.own.Load() != 2 {
		t.Fatal("the recorded lengths no longer replay from the tape")
	}
}

// TestTapeFailingPlanNeverRecords: a run that fails records nothing, whether
// the program can never finish (a deadlock: the identical diagnostic on every
// run, from the engine) or this one run was cut short (an interrupt: the
// next execution records).
func TestTapeFailingPlanNeverRecords(t *testing.T) {
	stuck := fabric.NewSpec(2, 1)
	stuck.PE(mesh.Coord{})
	stuck.SetOps(mesh.Coord{}, []fabric.Op{{Kind: fabric.OpRecvStore, Color: 3, N: 4}})
	stuck.AddConfig(mesh.Coord{}, 3, fabric.RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	stuck.AddConfig(mesh.Coord{X: 1}, 3, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
	pl := &Plan{Kind: Reduce1D, P: 2, B: 4, Spec: stuck, Opt: fabric.Options{}.Canonical()}
	in := vectors(2, 4, 0.5)
	var first string
	for run := 1; run <= 3; run++ {
		_, err := pl.Execute(in)
		if err == nil {
			t.Fatalf("run %d of a deadlocking program succeeded", run)
		}
		if first == "" {
			first = err.Error()
		}
		if err.Error() != first {
			t.Fatalf("run %d failed with %q, run 1 with %q", run, err, first)
		}
	}
	if pl.replay.tape.Load() != nil || pl.replay.ran.Load() {
		t.Fatalf("deadlocking plan: tape %v, ran %v", pl.replay.tape.Load() != nil, pl.replay.ran.Load())
	}

	req := Request{Kind: Reduce1D, Alg: core.Chain, P: 5, B: 3}
	good, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in = randomInputs(req, 1)
	if _, err := good.Execute(in); err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := good.ExecuteCtx(gone, in, ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("recording under a cancelled context returned %v", err)
	}
	if good.replay.tape.Load() != nil || !good.replay.ran.Load() {
		t.Fatalf("interrupted recording: tape %v, ran %v", good.replay.tape.Load() != nil, good.replay.ran.Load())
	}
	if _, err := good.Execute(in); err != nil || good.replay.tape.Load() == nil {
		t.Fatalf("the execution after an interrupted recording: %v, tape %v", err, good.replay.tape.Load() != nil)
	}
}

// TestTapeHonoursCancelledContext: a caller that already left gets its
// context's error, not a report, from a taped plan too.
func TestTapeHonoursCancelledContext(t *testing.T) {
	req := Request{Kind: AllGather, P: 5, B: 12}
	pl, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := randomInputs(req, 1)
	taped(t, pl, in)
	before := pl.replay.own.Load()
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if rep, err := pl.ExecuteCtx(gone, in, ExecOptions{}); rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteCtx under a cancelled context returned %v, %v", rep, err)
	}
	if reps, err := pl.ExecuteBatch(gone, [][][]float32{in, in}, ExecOptions{}); reps != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteBatch under a cancelled context returned %v, %v", reps, err)
	}
	if got := pl.replay.own.Load(); got != before {
		t.Fatalf("%d tape replays ran for a cancelled caller", got-before)
	}
}

// TestTapeRecordsOnceUnderConcurrency: 32 goroutines hammering one cached,
// never-run plan find it taped at the miss: every execution is a tape walk,
// and every report is the engine's.
func TestTapeRecordsOnceUnderConcurrency(t *testing.T) {
	req := Request{Kind: AllReduce2D, Alg2D: core.XYTree, Width: 5, Height: 4, B: 9,
		Opt: fabric.Options{ThermalNoopRate: 0.05, Seed: 3}}
	cache := NewCache(4)
	pl, err := cache.Get(req)
	if err != nil {
		t.Fatal(err)
	}
	in := randomInputs(req, 1)
	want, err := pl.ExecuteUnpooled(in)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, runs = 32, 6
	start := make(chan struct{})
	reports := make([][]*core.Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for run := 0; run < runs; run++ {
				rep, err := pl.ExecuteCtx(context.Background(), in, ExecOptions{Columnar: run%2 == 1})
				if err != nil {
					errs[g] = err
					return
				}
				reports[g] = append(reports[g], rep)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range reports {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for run, rep := range reports[g] {
			sameReportBits(t, want, rep, fmt.Sprintf("goroutine %d run %d", g, run))
		}
	}
	st := cache.Stats()
	if st.TapeRecords != 1 || st.TapeDeclined != 0 || st.TapeReplays != goroutines*runs {
		t.Fatalf("cache counted %d records, %d declined, %d replays over %d executions", st.TapeRecords, st.TapeDeclined, st.TapeReplays, goroutines*runs)
	}
	if pl.replay.tape.Load() == nil {
		t.Fatal("no tape after the storm")
	}
}

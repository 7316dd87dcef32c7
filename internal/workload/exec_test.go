package workload

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	wse "repro"
	"repro/internal/faults"
	"repro/internal/obs"
)

// propWorkload is a fan-out/fan-in DAG touching every one of the 11
// collective kinds: a broadcast feeds a scatter, a gemv (reduce) and a
// 2D reduce; the gemv fans out into two allreduce flavours that fan
// back into a reducescatter; the 2D chain runs reduce2d → allreduce2d →
// broadcast2d; scatter/gather and the reducescatter meet in a final
// allgather.
func propWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := New("prop").
		Step("broadcast", Params{"p": "6", "b": "12"}).
		Step("scatter", Params{"p": "4", "b": "12"}, "broadcast").
		Step("gemv", Params{"p": "6", "b": "12", "alg": "tree"}, "broadcast").
		Step("reduce2d", Params{"grid": "3x2", "b": "12", "alg": "xy-tree"}, "broadcast").
		Step("allreduce", Params{"p": "6", "b": "12", "alg": "twophase", "op": "max"}, "gemv").
		Step("allreduce-midroot", Params{"p": "6", "b": "12"}, "gemv").
		Step("allreduce2d", Params{"grid": "3x2", "b": "12", "alg": "snake", "op": "min"}, "reduce2d").
		Step("broadcast2d", Params{"grid": "3x2", "b": "12"}, "allreduce2d").
		Step("gather", Params{"p": "4", "b": "12"}, "scatter").
		Step("reducescatter", Params{"p": "4", "b": "12"}, "allreduce", "allreduce-midroot").
		Step("allgather", Params{"p": "4", "b": "12"}, "reducescatter", "gather").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func sameReport(t *testing.T, step string, a, b *wse.Report) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("step %s: nil report (%v, %v)", step, a, b)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("step %s: cycles %d != %d", step, a.Cycles, b.Cycles)
	}
	if a.Predicted != b.Predicted {
		t.Errorf("step %s: predicted %v != %v", step, a.Predicted, b.Predicted)
	}
	if a.Stats != b.Stats { // includes Noops: the RNG chain must match
		t.Errorf("step %s: stats %+v != %+v", step, a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.Root, b.Root) {
		t.Errorf("step %s: root vectors differ", step)
	}
	if !reflect.DeepEqual(a.All, b.All) {
		t.Errorf("step %s: per-PE results differ", step)
	}
}

// The DAG executor must be bit-identical to sequential execution through
// the verbs — same results AND the same skew/thermal RNG chain — for
// every collective kind, with clock skew and thermal no-ops switched on
// so any divergence in the random streams shows up in Cycles and
// Stats.Noops.
func TestExecBitIdenticalToSequential(t *testing.T) {
	w := propWorkload(t)
	opt := wse.Options{ClockSkewMax: 16, ThermalNoopRate: 0.02, Seed: 9}
	ctx := context.Background()

	seq, err := ExecSequential(ctx, OneShot(opt), w)
	if err != nil {
		t.Fatal(err)
	}

	s := wse.NewSession(wse.SessionConfig{Options: opt, PlanCacheCapacity: 64})
	defer s.Close()
	dag, err := Exec(ctx, s, w)
	if err != nil {
		t.Fatal(err)
	}

	if len(seq.Steps) != len(dag.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(seq.Steps), len(dag.Steps))
	}
	for i := range seq.Steps {
		sameReport(t, seq.Steps[i].Step.Name, seq.Steps[i].Report, dag.Steps[i].Report)
	}
	if seq.Cycles() != dag.Cycles() {
		t.Fatalf("total cycles %d != %d", seq.Cycles(), dag.Cycles())
	}

	// A second overlapped run (warm plans) must reproduce itself too.
	again, err := Exec(ctx, s, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dag.Steps {
		sameReport(t, dag.Steps[i].Step.Name, dag.Steps[i].Report, again.Steps[i].Report)
	}
}

// A workload served over a plan store compiles nothing in a fresh process:
// the training-step DAG runs through a session over an empty store, which
// writes each plan through at its miss, then again through a fresh session
// over the same directory. The second run's every miss is a store load, one
// per distinct step, and it computes what the first did, bit for bit.
func TestStoreServesTheWorkloadWithoutCompiling(t *testing.T) {
	w, err := ParseFile("../../examples/workloads/trainstep.wl")
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[wse.Shape]bool{}
	for _, st := range w.Steps() {
		distinct[st.Shape] = true
	}
	dir := t.TempDir()
	run := func() (*Result, wse.PlanStats) {
		t.Helper()
		store, err := wse.OpenPlanStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := wse.NewSession(wse.SessionConfig{Store: store})
		defer s.Close()
		res, err := Exec(context.Background(), s, w)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.PlanStats()
	}

	first, st := run()
	if st.Misses != int64(len(distinct)) || st.StoreHits != 0 {
		t.Fatalf("first run over an empty store: %d misses, %d store hits; want %d, 0", st.Misses, st.StoreHits, len(distinct))
	}
	again, st := run()
	if st.Misses != int64(len(distinct)) || st.StoreHits != st.Misses {
		t.Fatalf("fresh session over the filled store: %d misses, %d store hits (%d errors, %q); want %d of each",
			st.Misses, st.StoreHits, st.StoreErrors, st.LastStoreError, len(distinct))
	}
	for i, sr := range first.Steps {
		a, b := sr.Report, again.Steps[i].Report
		if a.Cycles != b.Cycles {
			t.Errorf("step %s: %d cycles compiled, %d loaded", sr.Step.Name, a.Cycles, b.Cycles)
		}
		if len(a.Root) != len(b.Root) {
			t.Fatalf("step %s: root of %d, then %d", sr.Step.Name, len(a.Root), len(b.Root))
		}
		for j := range a.Root {
			if math.Float32bits(a.Root[j]) != math.Float32bits(b.Root[j]) {
				t.Fatalf("step %s: root[%d] %v compiled, %v loaded", sr.Step.Name, j, a.Root[j], b.Root[j])
			}
		}
	}
}

// Independent steps must genuinely overlap: with more than one core the
// whole-run wall-clock sits below the sum of per-step wall-clocks; on
// one core the DAG path must still be within shouting distance of
// sequential (no pathological serialisation overhead).
func TestExecOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	w, err := New("overlap").
		Step("broadcast", Params{"p": "64", "b": "32"}).
		Step("reduce", Params{"p": "512", "b": "48", "name": "left"}, "broadcast").
		Step("reduce", Params{"p": "512", "b": "64", "name": "right"}, "broadcast").
		Step("allreduce", Params{"p": "64", "b": "32"}, "left", "right").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	multicore := runtime.GOMAXPROCS(0) > 1

	var last *Result
	for attempt := 0; attempt < 4; attempt++ {
		s := wse.NewSession(wse.SessionConfig{PlanCacheCapacity: 16, Workers: 4})
		res, err := Exec(ctx, s, w)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		last = res
		if !multicore || res.Wall < res.StepSum {
			break
		}
	}
	if multicore {
		if last.Wall >= last.StepSum {
			t.Fatalf("no overlap: wall %v >= step sum %v on %d procs",
				last.Wall, last.StepSum, runtime.GOMAXPROCS(0))
		}
	} else if last.Wall > last.StepSum*2+100*time.Millisecond {
		t.Fatalf("DAG path far off sequential parity on one core: wall %v, step sum %v",
			last.Wall, last.StepSum)
	}
}

// A traced workload run must land as ONE trace: every step's
// workload.step span carries the root's trace id and its step name.
func TestExecOneTraceAcrossSteps(t *testing.T) {
	w := propWorkload(t)
	tracer := obs.NewTracer(obs.Config{Sample: 1})
	ctx, root := tracer.Root(context.Background(), "workload", "")

	s := wse.NewSession(wse.SessionConfig{PlanCacheCapacity: 64})
	defer s.Close()
	if _, err := Exec(ctx, s, w); err != nil {
		t.Fatal(err)
	}
	rootID := root.TraceID()
	root.End()

	traces := tracer.Traces(0, 0)
	if len(traces) != 1 {
		t.Fatalf("want exactly 1 committed trace, got %d", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != rootID {
		t.Fatalf("trace id %s != root's %s", tr.TraceID, rootID)
	}
	steps := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.Name != "workload.step" {
			continue
		}
		name, _ := sp.Attrs["step"].(string)
		if name == "" {
			t.Fatalf("workload.step span without step attr: %+v", sp)
		}
		if kind, _ := sp.Attrs["kind"].(string); kind == "" {
			t.Fatalf("workload.step span without kind attr: %+v", sp)
		}
		steps[name] = true
	}
	if len(steps) != len(w.Steps()) {
		t.Fatalf("trace has %d workload.step spans, want %d", len(steps), len(w.Steps()))
	}
}

// Inputs are a pure function of step name and parent results: the base
// PRNG is name-seeded and parent roots fold in declared order.
func TestStepInputsDeterministic(t *testing.T) {
	sh := wse.Shape{Kind: wse.KindReduce, P: 4, B: 8}
	a := baseInputs(sh, "x")
	b := baseInputs(sh, "x")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("baseInputs not deterministic")
	}
	if c := baseInputs(sh, "y"); reflect.DeepEqual(a, c) {
		t.Fatal("baseInputs ignores the seed")
	}

	parent := &wse.Report{Root: []float32{1, 2, 3}}
	st := &Step{Name: "x", Shape: sh}
	with := stepInputs(st, []*wse.Report{parent})
	without := stepInputs(st, nil)
	if reflect.DeepEqual(with, without) {
		t.Fatal("parent result does not flow into child inputs")
	}
	again := stepInputs(st, []*wse.Report{parent})
	if !reflect.DeepEqual(with, again) {
		t.Fatal("stepInputs not deterministic")
	}
}

// An erroring step fails the run and names the step; dependents report
// the root cause through wrapping rather than hanging.
func TestExecPropagatesStepError(t *testing.T) {
	w, err := New("boom").
		StepShape("bad", wse.Shape{Kind: wse.KindAllReduce, Alg: wse.Tree, P: 8, B: 4}).
		StepShape("child", wse.Shape{Kind: wse.KindBroadcast, P: 4, B: 8}, "bad").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Both shapes are valid, so the failure has to come from below: the
	// first compile — the root step's — hits an armed failpoint.
	faults.Set("plan.compile", faults.Point{Count: 1})
	defer faults.Reset()
	s := wse.NewSession(wse.SessionConfig{PlanCacheCapacity: 8})
	defer s.Close()
	_, err = Exec(context.Background(), s, w)
	if !errors.Is(err, faults.ErrInjected) || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("want the injected compile failure naming step \"bad\", got %v", err)
	}
}

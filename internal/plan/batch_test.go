package plan

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// TestExecuteBatchMatchesSingleAndCancels: a plan-level batch is
// entry-for-entry identical to single Executes, and a cancelled context
// stops the batch at an entry boundary with ctx.Err().
func TestExecuteBatchMatchesSingleAndCancels(t *testing.T) {
	p, err := Compile(Request{Kind: Reduce1D, Alg: core.Chain, P: 6, B: 4, Op: fabric.OpSum})
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][][]float32, 3)
	for i := range batches {
		in := make([][]float32, 6)
		for j := range in {
			in[j] = []float32{float32(i + 1), 2, 3, float32(j)}

		}
		batches[i] = in
	}
	reps, err := p.ExecuteBatch(context.Background(), batches, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		single, err := p.Execute(batches[i])
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles != single.Cycles || rep.Root[0] != single.Root[0] || rep.Root[3] != single.Root[3] {
			t.Fatalf("entry %d: batch (%d cycles, root %v) vs single (%d cycles, root %v)",
				i, rep.Cycles, rep.Root, single.Cycles, single.Root)
		}
	}

	// nil ctx means no cancellation; a dead ctx stops before any replay.
	if _, err := p.ExecuteBatch(nil, batches, ExecOptions{}); err != nil {
		t.Fatalf("nil ctx batch: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if reps, err := p.ExecuteBatch(ctx, batches, ExecOptions{}); !errors.Is(err, context.Canceled) || reps != nil {
		t.Fatalf("cancelled batch: reps=%v err=%v, want nil + context.Canceled", reps, err)
	}
}

// TestExecuteBatchColumnarArena: the columnar batch path must match
// single columnar replays entry for entry, keep every report's buffers
// independent (the shared arena is carved into disjoint segments), and —
// the point of the arena — not allocate one Acc buffer per run.
func TestExecuteBatchColumnarArena(t *testing.T) {
	p, err := Compile(Request{Kind: Reduce1D, Alg: core.Chain, P: 6, B: 4, Op: fabric.OpSum})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	batches := make([][][]float32, n)
	for i := range batches {
		in := make([][]float32, 6)
		for j := range in {
			in[j] = []float32{float32(i + 1), 2, 3, float32(j)}
		}
		batches[i] = in
	}
	reps, err := p.ExecuteBatch(context.Background(), batches, ExecOptions{Columnar: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		single, err := p.ExecuteOpts(batches[i], ExecOptions{Columnar: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles != single.Cycles || rep.Root[0] != single.Root[0] || rep.Root[3] != single.Root[3] {
			t.Fatalf("entry %d: batch (%d cycles, root %v) vs single (%d cycles, root %v)",
				i, rep.Cycles, rep.Root, single.Cycles, single.Root)
		}
	}
	// Disjoint segments: scribbling over one report's accumulators must
	// not disturb any other report.
	want1 := reps[1].Root[0]
	for i := range reps[0].Columnar.Acc {
		reps[0].Columnar.Acc[i] = -999
	}
	if reps[1].Root[0] != want1 {
		t.Fatal("batch reports share accumulator storage")
	}

	if raceEnabled {
		return // the race detector inflates allocation counts
	}
	// The arena bound: growing the batch must not add an Acc allocation
	// per run. Per extra entry the batch path may allocate the Report and
	// its boxed fields, but the accumulator storage comes from the one
	// arena — so the growth from n to 2n entries stays well under what
	// per-run Acc buffers (one per entry) would add on top.
	allocs := func(batches [][][]float32) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := p.ExecuteBatch(context.Background(), batches, ExecOptions{Columnar: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	double := append(append([][][]float32{}, batches...), batches...)
	small, big := allocs(batches), allocs(double)
	perRun := (big - small) / float64(n)
	if perRun > 2.5 {
		t.Fatalf("columnar batch allocates %.1f allocs per extra run (n=%v -> 2n=%v); arena should hold it at the Report overhead (~2)", perRun, small, big)
	}
}

// distinctBatches builds n input sets of req's layout, no two alike.
func distinctBatches(req Request, n int) [][][]float32 {
	batches := make([][][]float32, n)
	for i := range batches {
		batches[i] = randomInputs(req, int64(i+1))
	}
	return batches
}

// engineReports is the reference of a batch: one ExecuteUnpooled per entry.
func engineReports(t *testing.T, pl *Plan, batches [][][]float32) []*core.Report {
	t.Helper()
	want := make([]*core.Report, len(batches))
	for i, in := range batches {
		var err error
		if want[i], err = pl.ExecuteUnpooled(in); err != nil {
			t.Fatalf("%s: engine run %d: %v", pl.Kind, i, err)
		}
	}
	return want
}

// TestExecuteBatchRecordsOnce: a batch on a plan nothing caches and nothing
// has run is one recording and a tape walk per entry, for every kind of the
// table and both result layouts — and every report is the engine's, bit for
// bit, in storage of its own.
func TestExecuteBatchRecordsOnce(t *testing.T) {
	for i := range Kinds {
		req := requestsOf(&Kinds[i], smallRow)[0]
		batches := distinctBatches(req, 5)
		for _, columnar := range []bool{false, true} {
			label := fmt.Sprintf("%s columnar=%v", req.Kind, columnar)
			pl, err := Compile(req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := engineReports(t, pl, batches)
			reps, err := pl.ExecuteBatch(context.Background(), batches, ExecOptions{Columnar: columnar})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Scribbling over the first report must leave the others alone.
			sameReportBits(t, want[0], reps[0], label+" entry 0")
			if columnar {
				for k := range reps[0].Columnar.Acc {
					reps[0].Columnar.Acc[k] = -999
				}
			} else {
				for _, v := range reps[0].All {
					for k := range v {
						v[k] = -999
					}
				}
			}
			for j := 1; j < len(reps); j++ {
				sameReportBits(t, want[j], reps[j], fmt.Sprintf("%s entry %d", label, j))
			}
			r := &pl.replay
			if r.state.Load() != tapeReady || r.own.records.Load() != 1 || r.own.replays.Load() != 5 || r.own.declined.Load() != 0 {
				t.Fatalf("%s: state %d, %d recordings, %d replays, %d declined; want ready, 1, 5, 0",
					label, r.state.Load(), r.own.records.Load(), r.own.replays.Load(), r.own.declined.Load())
			}
		}
	}
}

// TestExecuteBatchEngineFallbacks: what keeps a single execution on the
// engine keeps a batch entry there. A traced plan is declined by its first
// entry and runs every entry on the engine, events and all; a batch of one
// is a single execution, so a cold plan does not record for it.
func TestExecuteBatchEngineFallbacks(t *testing.T) {
	tr := &fabric.Tracer{}
	req := Request{Kind: AllReduce1D, Alg: core.Tree, P: 7, B: 5, Opt: fabric.Options{Tracer: tr}}
	pl, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	batches := distinctBatches(req, 4)
	want := engineReports(t, pl, batches)
	perRun := len(tr.Events) / len(batches)
	if perRun == 0 {
		t.Fatal("the tracer saw nothing")
	}
	for _, columnar := range []bool{false, true} {
		before := len(tr.Events)
		reps, err := pl.ExecuteBatch(nil, batches, ExecOptions{Columnar: columnar})
		if err != nil {
			t.Fatal(err)
		}
		for i := range reps {
			sameReportBits(t, want[i], reps[i], fmt.Sprintf("traced batch[%d] columnar=%v", i, columnar))
		}
		if got := len(tr.Events) - before; got != len(batches)*perRun {
			t.Fatalf("traced batch left %d trace events, want %d", got, len(batches)*perRun)
		}
	}
	if r := &pl.replay; r.tape.Load() != nil || r.state.Load() != tapeDeclined || r.own.declined.Load() != 1 || r.own.replays.Load() != 0 {
		t.Fatalf("traced plan: tape %v, state %d, declined %d, replays %d", r.tape.Load() != nil, r.state.Load(), r.own.declined.Load(), r.own.replays.Load())
	}

	req.Opt.Tracer = nil
	if pl, err = Compile(req); err != nil {
		t.Fatal(err)
	}
	reps, err := pl.ExecuteBatch(nil, batches[:1], ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameReportBits(t, want[0], reps[0], "batch of one")
	if r := &pl.replay; r.state.Load() != tapeWarm || r.own.records.Load() != 0 || r.own.replays.Load() != 0 {
		t.Fatalf("cold plan after a batch of one: state %d, %d recordings, %d replays; want warm, 0, 0", r.state.Load(), r.own.records.Load(), r.own.replays.Load())
	}
}

// cancelledAfter is a context that counts as cancelled once its plan has
// produced n reports from the tape: a caller leaving mid-batch, on cue.
type cancelledAfter struct {
	context.Context
	pl *Plan
	n  int64
}

func (c cancelledAfter) Err() error {
	if c.pl.replay.own.replays.Load() >= c.n {
		return context.Canceled
	}
	return nil
}

// TestExecuteBatchFailureMarksSpan: a batch that fails leaves its
// fabric.batch span errored, so a tracer that keeps traces on error alone
// (no head sampling) keeps the batch.
func TestExecuteBatchFailureMarksSpan(t *testing.T) {
	req := Request{Kind: Reduce1D, Alg: core.Chain, P: 6, B: 4}
	ragged := distinctBatches(req, 5)
	ragged[3][2] = ragged[3][2][:3]
	for _, c := range []struct {
		name    string
		batches [][][]float32
		leave   int64 // cancel once this many entries are done; 0: never
		want    error
		mode    any // of the span: nil when the batch never reached the plan
	}{
		{"ragged entry 3", ragged, 0, ErrBadShape, nil},
		{"cancelled after entry 1", distinctBatches(req, 5), 2, context.Canceled, modeRecord},
	} {
		pl, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		tracer := obs.NewTracer(obs.Config{})
		ctx, root := tracer.Root(context.Background(), "test", "")
		if c.leave > 0 {
			ctx = cancelledAfter{ctx, pl, c.leave}
		}
		reps, err := pl.ExecuteBatch(ctx, c.batches, ExecOptions{})
		root.End()
		tracer.Close()
		if reps != nil || !errors.Is(err, c.want) {
			t.Fatalf("%s: reports %v, error %v; want none and %v", c.name, reps, err, c.want)
		}
		traces := tracer.Traces(0, 0)
		if len(traces) != 1 {
			t.Fatalf("%s: %d traces kept, want the failed batch's", c.name, len(traces))
		}
		var span *obs.SpanRecord
		for i := range traces[0].Spans {
			if traces[0].Spans[i].Name == "fabric.batch" {
				span = &traces[0].Spans[i]
			}
		}
		if span == nil || span.Error != err.Error() || span.Attrs["entries"] != 5 || span.Attrs["mode"] != c.mode {
			t.Fatalf("%s: fabric.batch span %+v, want error %q, 5 entries, mode %v", c.name, span, err, c.mode)
		}
		if c.leave > 0 && pl.replay.own.replays.Load() != c.leave {
			t.Fatalf("%s: %d entries ran, want %d", c.name, pl.replay.own.replays.Load(), c.leave)
		}
	}
}

package fabric_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
)

// walkVariants are the engine configurations the run former is checked
// under: each one changes the order the recording run sees the events in.
func walkVariants() []fabric.Options {
	return []fabric.Options{
		{},
		{ClockSkewMax: 50, ThermalNoopRate: 0.2, Seed: 7},
		{TaskActivation: 3},
		{QueueCap: 1},
	}
}

// walkShapes are the compiled programs it is checked on: every row of the
// kind table, the ring all-reduces, whose chunks go round in both
// directions at once, and the star at one element and at sixteen, where the
// senders' wavelets arrive at the root interleaved.
func walkShapes(t *testing.T) []plan.Request {
	shapes := statsShapes()
	covered := make(map[plan.Kind]bool)
	for _, req := range shapes {
		covered[req.Kind] = true
	}
	for _, ki := range plan.Kinds {
		if !covered[ki.Kind] {
			t.Fatalf("kind %s of the kind table has no shape here", ki.Kind)
		}
	}
	return append(shapes,
		plan.Request{Kind: plan.AllReduce1D, Alg: core.Ring, P: 8, B: 24},
		plan.Request{Kind: plan.AllReduce1D, Alg: core.RingDP, P: 6, B: 18, Op: fabric.OpMax},
		plan.Request{Kind: plan.Reduce1D, Alg: core.Star, P: 9, B: 1},
		plan.Request{Kind: plan.Reduce1D, Alg: core.Star, P: 9, B: 16, Op: fabric.OpMin},
		plan.Request{Kind: plan.Reduce1D, Alg: core.AutoGen, P: 33, B: 12},
	)
}

// recordRaw compiles req and runs its program's recording pass.
func recordRaw(tb testing.TB, req plan.Request) (*fabric.Spec, *fabric.Recording) {
	tb.Helper()
	pl, err := plan.Compile(req)
	if err != nil {
		tb.Fatalf("%s %s: %v", req.Kind, req.Alg, err)
	}
	spec := stampedSpec(tb, pl)
	f, err := fabric.New(spec, req.Opt)
	if err != nil {
		tb.Fatalf("%s %s: %v", req.Kind, req.Alg, err)
	}
	raw, err := f.RecordRaw()
	if err != nil {
		tb.Fatalf("%s %s: record: %v", req.Kind, req.Alg, err)
	}
	return spec, raw
}

// TestRunWalkMatchesReferenceWalk is the differential property of the run
// former: for every shape under every variant, walking the runs leaves the
// whole image — inputs, scratch and results of every PE, filled with
// non-integer values — in the very bits the event-at-a-time reference walk
// of the same recording leaves.
func TestRunWalkMatchesReferenceWalk(t *testing.T) {
	for _, req := range walkShapes(t) {
		for vi, opt := range walkVariants() {
			req.Opt = opt
			_, raw := recordRaw(t, req)
			fabric.SameWalk(t, raw, fmt.Sprintf("%s %s %dx%d P=%d B=%d variant %d", req.Kind, req.Alg, req.Width, req.Height, req.P, req.B, vi))
		}
	}
}

// vectorShapes are the streaming collectives at a size where a PE's op is a
// vector worth the name.
func vectorShapes(p, b int) []plan.Request {
	return []plan.Request{
		{Kind: plan.Reduce1D, Alg: core.Chain, P: p, B: b},
		{Kind: plan.Reduce1D, Alg: core.Tree, P: p, B: b},
		{Kind: plan.Reduce1D, Alg: core.TwoPhase, P: p, B: b},
		{Kind: plan.Reduce1D, Alg: core.AutoGen, P: p, B: b},
		{Kind: plan.AllReduce1D, Alg: core.Auto, P: p, B: b},
		{Kind: plan.Broadcast1D, P: p, B: b},
	}
}

// TestTapeRunsAreVectors is the ratchet on what a tape keeps: the streaming
// collectives at P=64 B=256 come out at no more than four runs a PE (a
// chain PE is a reduce run and a load run), and neither a recorded nor a
// decoded tape holds on to anything of the size of its events.
func TestTapeRunsAreVectors(t *testing.T) {
	const p, b = 64, 256
	for _, req := range vectorShapes(p, b) {
		label := fmt.Sprintf("%s %s", req.Kind, req.Alg)
		spec, raw := recordRaw(t, req)
		recorded, err := raw.Tape()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := fabric.DecodeTape(spec, recorded.AppendBinary(nil))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		t.Logf("%s: %d events in %d runs", label, recorded.Events(), recorded.Runs())
		for name, tape := range map[string]*fabric.Tape{"recorded": recorded, "decoded": decoded} {
			if tape.Events() < p*b/2 || tape.Runs() > 4*p {
				t.Errorf("%s: the %s tape keeps %d events as %d runs, want at most %d", label, name, tape.Events(), tape.Runs(), 4*p)
			}
			v := reflect.ValueOf(tape).Elem()
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() > 4*p+1 {
					t.Errorf("%s: the %s tape's field %s holds %d entries for %d PEs: something per event is retained",
						label, name, v.Type().Field(i).Name, f.Len(), p)
				}
			}
		}
	}
}

// benchShapes are the four dataflows the walk and the former are timed on.
func benchShapes() []struct {
	name string
	req  plan.Request
} {
	const p, b = 256, 256
	return []struct {
		name string
		req  plan.Request
	}{
		{"chain", plan.Request{Kind: plan.Reduce1D, Alg: core.Chain, P: p, B: b}},
		{"autogen", plan.Request{Kind: plan.Reduce1D, Alg: core.AutoGen, P: p, B: b}},
		{"allreduce", plan.Request{Kind: plan.AllReduce1D, Alg: core.Auto, P: p, B: b}},
		{"broadcast", plan.Request{Kind: plan.Broadcast1D, P: p, B: b}},
	}
}

// BenchmarkTapeWalk times one walk of a tape over its image.
func BenchmarkTapeWalk(b *testing.B) {
	for _, sh := range benchShapes() {
		b.Run(sh.name, func(b *testing.B) {
			_, raw := recordRaw(b, sh.req)
			tape, err := raw.Tape()
			if err != nil {
				b.Fatal(err)
			}
			acc := make([]float32, tape.AccLen())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tape.Walk(acc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tape.Events()), "ns/element")
			b.ReportMetric(float64(tape.Runs()), "runs")
		})
	}
}

// BenchmarkFormRuns times the run former on a recording's raw events: what
// a recording run pays once, over the engine's pass, for every later walk.
func BenchmarkFormRuns(b *testing.B) {
	for _, sh := range benchShapes() {
		b.Run(sh.name, func(b *testing.B) {
			_, raw := recordRaw(b, sh.req)
			b.ReportAllocs()
			b.ResetTimer()
			runs := 0
			for i := 0; i < b.N; i++ {
				runs = raw.FormRuns()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(raw.Events()), "ns/element")
			b.ReportMetric(float64(runs), "runs")
		})
	}
}

package serve

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	wse "repro"
	"repro/client"
	"repro/internal/plan"
	"repro/internal/wire"
)

// TestKindTableConformance: every row of the kind table crosses the wire
// and comes back the same Shape, under either of its names, and names the
// table does not hold are a 400-class error. Every envelope around a shape
// makes the same trip: what this package writes is, byte for byte, the
// spelling pinned here, and reads back equal as internal/wire's type —
// which is the client's (by its exported alias where it has one).
func TestKindTableConformance(t *testing.T) {
	for i := range plan.Kinds {
		ki := &plan.Kinds[i]
		sh := wse.Shape{Kind: ki.Kind, Alg: wse.Auto, Alg2D: wse.Auto2D, P: 6, Width: 3, Height: 2, B: 14, Op: wse.Max}
		if len(ki.Algs) > 0 {
			sh.Alg = ki.Algs[len(ki.Algs)-1]
		}
		if len(ki.Algs2D) > 0 {
			sh.Alg2D = ki.Algs2D[len(ki.Algs2D)-1]
		}
		sw := WireShape(sh)
		if back, err := ShapeOf(sw); err != nil || back != sh {
			t.Errorf("%s: Shape -> wire -> Shape = %+v, %v; want %+v", ki.Kind, back, err, sh)
		}
		sw.Kind, sw.Op = strings.ToUpper(ki.Name), "MAX"
		if back, err := ShapeOf(sw); err != nil || back != sh {
			t.Errorf("%s: wire kind %q = %+v, %v; want %+v", ki.Kind, sw.Kind, back, err, sh)
		}
	}
	for _, sw := range []ShapeWire{{Kind: "transpose", P: 4, B: 4}, {Kind: "reduce", P: 4, B: 4, Op: "xor"}} {
		if _, err := ShapeOf(sw); !errors.Is(err, wse.ErrBadShape) {
			t.Errorf("ShapeOf(%+v) = %v, want ErrBadShape", sw, err)
		}
	}

	predicted := 12.5
	sw := ShapeWire{Kind: "reduce1d", Alg: "chain", P: 2, B: 1, Op: "sum"}
	rep := ReportWire{Cycles: 9, Predicted: &predicted, Root: []float32{2}, Stats: StatsWire{Hops: 3}}
	for _, c := range []struct {
		sent any    // as this package spells it
		back any    // as the client reads it
		json string // as the wire does
	}{
		{runRequest{Shape: sw, Inputs: [][]float32{{1}, {1}}}, new(wire.RunRequest),
			`{"shape":{"kind":"reduce1d","alg":"chain","p":2,"b":1,"op":"sum"},"inputs":[[1],[1]]}`},
		{runRequest{Shape: sw}, new(wire.RunRequest), // the body of predict and bound
			`{"shape":{"kind":"reduce1d","alg":"chain","p":2,"b":1,"op":"sum"}}`},
		{submitResponse{ID: "j7", URL: "/v1/jobs/j7"}, new(wire.SubmitResponse), `{"id":"j7","status_url":"/v1/jobs/j7"}`},
		{errorResponse{Error: "overloaded"}, new(wire.ErrorResponse), `{"error":"overloaded"}`},
		{jobResponse{ID: "j7", State: "pending"}, new(client.Job), `{"id":"j7","state":"pending"}`},
		{jobResponse{ID: "j7", State: "failed", Error: "boom"}, new(client.Job), `{"id":"j7","state":"failed","error":"boom"}`},
		{jobResponse{ID: "j7", State: "done", Result: &rep}, new(client.Job),
			`{"id":"j7","state":"done","result":{"cycles":9,"predicted":12.5,"root":[2],"stats":{"hops":3,"ramp_moves":0,"max_received":0,"max_queue_len":0}}}`},
		{warmRequest{Shapes: []ShapeWire{sw}}, new(wire.WarmRequest), `{"shapes":[{"kind":"reduce1d","alg":"chain","p":2,"b":1,"op":"sum"}]}`},
		{warmResponse{Warmed: 2, Resident: 1, Failed: 1, Errors: []string{"bad"}}, new(client.WarmResult),
			`{"warmed":2,"resident":1,"failed":1,"errors":["bad"]}`},
	} {
		got, err := json.Marshal(c.sent)
		if err != nil || string(got) != c.json {
			t.Errorf("%T on the wire = %s, %v; want %s", c.sent, got, err, c.json)
			continue
		}
		if err := json.Unmarshal(got, c.back); err != nil || !reflect.DeepEqual(reflect.ValueOf(c.back).Elem().Interface(), c.sent) {
			t.Errorf("%T -> wire -> %T = %+v, %v; want %+v", c.sent, c.back, c.back, err, c.sent)
		}
	}
}

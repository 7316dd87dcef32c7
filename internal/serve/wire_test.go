package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	wse "repro"
	"repro/client"
	"repro/internal/obs"
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

// everyFloat is a vector holding one of every class of float32 the text
// codec treats differently — both zeros, the smallest subnormal, the
// largest finite, the integers around 2^24, both sides of the 1e-6 and 1e21
// format switches — and n random bit patterns with NaN and Inf removed.
func everyFloat(n int) []float32 {
	v := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, 1<<24 - 1, 1 << 24, 1<<24 + 2, -(1<<24 - 1),
		9.999999e-7, 1e-6, 1.0000001e-6, 9.999999e20, 1e21, 1.0000001e21, 0.1, -2.5, 3,
	}
	rng := rand.New(rand.NewSource(7))
	for classes := len(v); len(v) < classes+n; {
		if f := math.Float32frombits(rng.Uint32()); f == f && !math.IsInf(float64(f), 0) {
			v = append(v, f)
		}
	}
	return v
}

// TestVectorsCrossTheWireBitIdentical: a broadcast of every class of
// float32, and a sum-reduce over them, answer over /v1/run with the Root
// the in-process session computes, bit for bit — through client.Run, whose
// body the server walks, and through a body spelled the way the walk
// declines ("Inputs" first and capitalised, spaces, a trailing newline),
// which encoding/json decodes. A NaN never leaves the client.
func TestVectorsCrossTheWireBitIdentical(t *testing.T) {
	tracer := obs.NewTracer(obs.Config{Sample: 1})
	defer tracer.Close()
	sess := wse.NewSession(wse.SessionConfig{})
	_, ts := newTestServer(t, Config{Session: sess, Tracer: tracer})
	c := client.New(client.Config{BaseURL: ts.URL})

	a := everyFloat(10000)
	b := make([]float32, len(a)) // a again where a+a is finite, else small: the sums stay encodable
	for i, f := range a {
		if b[i] = f; f > 1e38 || f < -1e38 {
			b[i] = float32(i%7 - 3)
		}
	}
	for _, tc := range []struct {
		sh     wse.Shape
		inputs [][]float32
	}{
		{wse.Shape{Kind: wse.KindBroadcast, P: 3, B: len(a)}, [][]float32{a}},
		{wse.Shape{Kind: wse.KindReduce, Alg: wse.Chain, P: 2, B: len(a), Op: wse.Sum}, [][]float32{a, b}},
	} {
		want, err := sess.Run(context.Background(), tc.sh, tc.inputs)
		if err != nil {
			t.Fatal(err)
		}
		check := func(how, envelope string, got []float32) {
			t.Helper()
			if len(got) != len(want.Root) {
				t.Fatalf("%s %s: root of %d elements, in-process %d", tc.sh.Kind, how, len(got), len(want.Root))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want.Root[i]) {
					t.Errorf("%s %s: root[%d] = %v (%#x), in-process %v (%#x)", tc.sh.Kind, how, i,
						got[i], math.Float32bits(got[i]), want.Root[i], math.Float32bits(want.Root[i]))
				}
			}
			sp := spanByName(t, tracer.Traces(0, 1)[0], "serve.decode")
			if sp.Attrs["envelope"] != envelope {
				t.Errorf("%s %s: the body was %v, want %s", tc.sh.Kind, how, sp.Attrs["envelope"], envelope)
			}
		}

		nTraces := len(tracer.Traces(0, 0))
		rep, err := c.Run(context.Background(), client.Shape(WireShape(tc.sh)), tc.inputs)
		if err != nil {
			t.Fatal(err)
		}
		waitTraces(t, tracer, nTraces+1)
		check("client.Run", "walked", rep.Root)

		shape, _ := json.Marshal(WireShape(tc.sh))
		rows, _ := json.Marshal(tc.inputs)
		body := ` { "Inputs" : ` + strings.ReplaceAll(string(rows), ",", " , ") + ` , "shape" : ` + string(shape) + " }\n"
		resp, out := post(t, ts.URL+"/v1/run", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s hand-written body: status %d: %.200s", tc.sh.Kind, resp.StatusCode, out)
		}
		var got ReportWire
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		waitTraces(t, tracer, nTraces+2)
		check("hand-written body", "delegated", got.Root)
	}

	sent := c.Metrics().Attempts
	_, err := c.Run(context.Background(), client.Shape{Kind: "reduce1d", P: 2, B: 1}, [][]float32{{1}, {float32(math.NaN())}})
	if err == nil || c.Metrics().Attempts != sent {
		t.Errorf("a NaN input: %v after %d requests, want an encode error and none sent", err, c.Metrics().Attempts-sent)
	}
}

// TestOversizeBody413: a body one byte over MaxBody is 413, not a 400
// about a malformed body, and the client does not retry it.
func TestOversizeBody413(t *testing.T) {
	body := runBody("reduce1d", 2, 2)
	limit := int64(len(body) - 1)
	_, worker := newTestServer(t, Config{MaxBody: limit})
	_, roomy := newTestServer(t, Config{})
	for _, ep := range []string{"/v1/run", "/v1/submit", "/v1/predict"} {
		resp, out := post(t, worker.URL+ep, body, nil)
		var e errorResponse
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(out, &e) != nil || !strings.Contains(e.Error, "request body over") {
			t.Errorf("%s: %d %s, want 413 and a JSON error naming the limit", ep, resp.StatusCode, out)
		}
	}
	c := client.New(client.Config{BaseURL: worker.URL, MaxAttempts: 4, BaseBackoff: time.Millisecond})
	_, err := c.Run(context.Background(), client.Shape{Kind: "reduce1d", P: 2, B: 2, Op: "sum"}, onesInputs(2, 2))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge || c.Metrics().Attempts != 1 {
		t.Errorf("client.Run = %v after %d attempts, want one attempt and a 413", err, c.Metrics().Attempts)
	}
	// One byte fewer fits; the limit is the worker's, not the route's.
	if resp, out := post(t, worker.URL+"/v1/run", body[:len(body)-1], nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("a truncated body at the limit: %d %s, want 400", resp.StatusCode, out)
	}
	if resp, out := post(t, roomy.URL+"/v1/run", body, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("the same body under the default limit: %d %s", resp.StatusCode, out)
	}
}

// TestContentLengthIsNotTrusted: a request whose Content-Length claims
// 64 MiB and whose body is ten bytes costs the server what ten bytes cost,
// plus at most the 1 MiB the header may pre-size.
func TestContentLengthIsNotTrusted(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader("0123456789"))
	req.ContentLength = 64 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("ten bytes of digits answered %d: %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("a 10-byte body claiming 64 MiB made the server allocate %d bytes, want under 2 MiB", got)
	}
}

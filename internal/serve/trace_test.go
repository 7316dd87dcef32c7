package serve

// End-to-end tracing tests: one request produces one committed trace
// whose span tree crosses the serve → sched → resolve → fabric seams
// (and the client → daemon network hop) under a single trace id;
// failures mark the failing span and ride up to the root.

import (
	"context"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	wse "repro"
	"repro/client"
	"repro/internal/faults"
	"repro/internal/obs"
)

// syncLogBuffer is a mutex-guarded log sink: the slow-request line is
// written from the handler goroutine while the test reads it.
type syncLogBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncLogBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncLogBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func newBufLogger(w *syncLogBuffer) *log.Logger { return log.New(w, "", 0) }

// waitTraces polls a tracer's ring until n traces are committed. The
// root span commits in the handler's defer, which can run a beat after
// the client has the response, so assertions poll instead of racing.
func waitTraces(t *testing.T, tr *obs.Tracer, n int) []*obs.Trace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		traces := tr.Traces(0, 0)
		if len(traces) >= n {
			return traces
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d committed traces, have %d", n, len(traces))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spanByName finds the first span with the given name, or fails.
func spanByName(t *testing.T, tr *obs.Trace, name string) obs.SpanRecord {
	t.Helper()
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("trace %s has no span %q (spans: %v)", tr.TraceID, name, spanNames(tr))
	return obs.SpanRecord{}
}

func spanNames(tr *obs.Trace) []string {
	names := make([]string, 0, len(tr.Spans))
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	return names
}

// TestTraceEndToEnd: one /v1/run at 100% sampling commits one trace
// whose tree crosses every instrumented seam: the http root span parents
// the scheduler's queue and exec spans and the resolve span, and the
// fabric execution nests under exec (it runs on the scheduler's worker
// with the exec span's context).
func TestTraceEndToEnd(t *testing.T) {
	tracer := obs.NewTracer(obs.Config{Sample: 1})
	defer tracer.Close()
	_, ts := newTestServer(t, Config{Tracer: tracer})

	resp, body := post(t, ts.URL+"/v1/run", runBody("reduce1d", 8, 4), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}

	tr := waitTraces(t, tracer, 1)[0]
	if tr.Root != "http run" {
		t.Fatalf("root span = %q, want \"http run\"", tr.Root)
	}
	if tr.Error != "" {
		t.Fatalf("trace unexpectedly errored: %s", tr.Error)
	}

	root := spanByName(t, tr, "http run")
	if root.Parent != "" {
		t.Fatalf("root span has parent %q", root.Parent)
	}
	if got := root.Attrs["code"]; got != 200 {
		t.Fatalf("root code attr = %v, want 200", got)
	}

	queue := spanByName(t, tr, "sched.queue")
	exec := spanByName(t, tr, "sched.exec")
	resolve := spanByName(t, tr, "plan.resolve")
	fabric := spanByName(t, tr, "fabric.exec")
	for name, sp := range map[string]obs.SpanRecord{"sched.queue": queue, "sched.exec": exec, "plan.resolve": resolve} {
		if sp.Parent != root.ID {
			t.Errorf("%s parent = %q, want root %q", name, sp.Parent, root.ID)
		}
	}
	if fabric.Parent != exec.ID {
		t.Errorf("fabric.exec parent = %q, want sched.exec %q", fabric.Parent, exec.ID)
	}
	if fabric.Attrs["cycles"] == nil || fabric.Attrs["steps"] == nil {
		t.Errorf("fabric.exec span missing cycles/steps attrs: %v", fabric.Attrs)
	}
	if exec.Attrs["tenant"] == nil {
		t.Errorf("sched.exec span missing tenant attr: %v", exec.Attrs)
	}
}

// TestDecodeSpanSaysWhichEnvelope: the serve.decode span carries the body's
// length and whether the client's spelling took the codec's own walk or was
// handed to encoding/json — the check that real traffic is on the fast path.
func TestDecodeSpanSaysWhichEnvelope(t *testing.T) {
	tracer := obs.NewTracer(obs.Config{Sample: 1})
	defer tracer.Close()
	_, ts := newTestServer(t, Config{Tracer: tracer})

	canonical := runBody("reduce1d", 4, 2)
	for i, tc := range []struct{ body, envelope string }{
		{canonical, "walked"},
		{" " + canonical + "\n", "walked"},
		{strings.Replace(canonical, `"inputs"`, `"Inputs"`, 1), "delegated"},
		{strings.Replace(canonical, `}`, `,"alg":"\u0063hain"}`, 1), "walked"}, // the shape is encoding/json's either way
		{canonical + "trailing", "delegated"},
	} {
		resp, out := post(t, ts.URL+"/v1/run", tc.body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.body, resp.StatusCode, out)
		}
		sp := spanByName(t, waitTraces(t, tracer, i+1)[0], "serve.decode")
		if sp.Attrs["bytes"] != len(tc.body) || sp.Attrs["envelope"] != tc.envelope {
			t.Errorf("%s: serve.decode attrs %v, want bytes %d and envelope %s", tc.body, sp.Attrs, len(tc.body), tc.envelope)
		}
	}
}

// TestReplayTapeIsObservable: three runs of one shape through a session are
// a recording (the plan is cached, so its first execution records) and two
// tape replays. The fabric.exec spans say which, all three carrying the one
// cycle count and step count the engine decided and the number of runs the
// tape keeps the dataflow as, and /metrics counts the tape's life.
func TestReplayTapeIsObservable(t *testing.T) {
	tracer := obs.NewTracer(obs.Config{Sample: 1})
	defer tracer.Close()
	_, ts := newTestServer(t, Config{Tracer: tracer})
	for run := 1; run <= 3; run++ {
		if resp, body := post(t, ts.URL+"/v1/run", runBody("allreduce1d", 8, 4), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", run, resp.StatusCode, body)
		}
		waitTraces(t, tracer, run) // commit order is request order
	}
	modes := map[any]int{}
	var first obs.SpanRecord
	for i, tr := range tracer.Traces(0, 0) {
		sp := spanByName(t, tr, "fabric.exec")
		modes[sp.Attrs["mode"]]++
		if i == 0 {
			first = sp
		}
		if sp.Attrs["cycles"] != first.Attrs["cycles"] || sp.Attrs["steps"] != first.Attrs["steps"] {
			t.Errorf("fabric.exec %v reports cycles %v steps %v, another run %v %v", sp.Attrs["mode"], sp.Attrs["cycles"], sp.Attrs["steps"], first.Attrs["cycles"], first.Attrs["steps"])
		}
		if runs, ok := sp.Attrs["tape_runs"].(int); !ok || runs < 1 || runs != first.Attrs["tape_runs"] {
			t.Errorf("fabric.exec %v reports tape_runs %v, the recording run %v", sp.Attrs["mode"], sp.Attrs["tape_runs"], first.Attrs["tape_runs"])
		}
	}
	if len(modes) != 2 || modes["record"] != 1 || modes["tape"] != 2 {
		t.Errorf("fabric.exec modes over three runs: %v, want record, tape, tape", modes)
	}
	_, body := get(t, ts.URL+"/metrics")
	for _, line := range []string{
		"wse_plan_tape_records_total 1",
		"wse_plan_tape_replays_total 3", // the recording run's own report, and the two after it
		"wse_plan_tape_declined_total 0",
		"wse_plan_tape_loaded_total 0", // nothing came from a store
	} {
		if !strings.Contains(string(body), line) {
			t.Errorf("metrics output missing %q", line)
		}
	}
}

// TestTraceClientJoinsWorkerID: a request the client sends under a root
// span of its own is one trace across both sides — the client mints the
// id, its per-attempt span carries it over the wire, and the daemon
// commits under it.
func TestTraceClientJoinsWorkerID(t *testing.T) {
	var tracers [2]*obs.Tracer // client, worker
	for i := range tracers {
		tracers[i] = obs.NewTracer(obs.Config{Sample: 1})
		defer tracers[i].Close()
	}
	ctr, wtr := tracers[0], tracers[1]

	sess := wse.NewSession(wse.SessionConfig{})
	s := New(Config{Session: sess, Tracer: wtr})
	wts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		wts.Close()
		s.stopSweeper()
		sess.Close()
	})
	ctx, root := ctr.Root(context.Background(), "test client", "")
	_, err := client.New(client.Config{BaseURL: wts.URL}).Run(ctx, client.Shape{Kind: "reduce1d", Alg: "chain", P: 4, B: 2, Op: "sum"},
		[][]float32{{1, 1}, {1, 1}, {1, 1}, {1, 1}})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	ctrace := waitTraces(t, ctr, 1)[0]
	if wtrace := waitTraces(t, wtr, 1)[0]; wtrace.TraceID != ctrace.TraceID {
		t.Fatalf("trace id split across the hop: client %s, worker %s", ctrace.TraceID, wtrace.TraceID)
	}
	attempts := 0
	for _, sp := range ctrace.Spans {
		if strings.HasPrefix(sp.Name, "client ") {
			attempts++
		}
	}
	if attempts != 1 {
		t.Errorf("client trace has %d per-attempt spans, want 1 (spans: %v)", attempts, spanNames(ctrace))
	}
}

// TestTraceExecFailpointError: an injected fabric.exec fault must mark
// the failing span AND the root: the exec span records the error where
// it happened, and the root span records the resulting 500 — the trace
// answers "which request failed" and "where" in one artifact.
func TestTraceExecFailpointError(t *testing.T) {
	defer faults.Reset()
	faults.Set("fabric.exec", faults.Point{Count: 1})

	tracer := obs.NewTracer(obs.Config{Sample: 1})
	defer tracer.Close()
	_, ts := newTestServer(t, Config{Tracer: tracer})

	resp, body := post(t, ts.URL+"/v1/run", runBody("reduce1d", 8, 4), nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("run with armed fabric.exec failpoint: status %d, want 500: %s", resp.StatusCode, body)
	}

	tr := waitTraces(t, tracer, 1)[0]
	if tr.Error == "" {
		t.Fatal("trace of a failed request carries no error")
	}
	fabric := spanByName(t, tr, "fabric.exec")
	if fabric.Error == "" {
		t.Error("fabric.exec span did not record the injected fault")
	}
	exec := spanByName(t, tr, "sched.exec")
	if exec.Error == "" {
		t.Error("sched.exec span did not record the propagated fault")
	}
	root := spanByName(t, tr, "http run")
	if root.Error == "" {
		t.Error("root span did not record the 500")
	}
	if got := root.Attrs["code"]; got != 500 {
		t.Errorf("root code attr = %v, want 500", got)
	}
}

// TestDebugTracesEndpoint: 404 while tracing is off (probes can tell
// "off" from "empty"), 200 with a JSON list when on, 400 on bad params.
func TestDebugTracesEndpoint(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, _ := get(t, off.URL+"/debug/traces")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traces with tracing off: status %d, want 404", resp.StatusCode)
	}

	tracer := obs.NewTracer(obs.Config{Sample: 1})
	defer tracer.Close()
	_, on := newTestServer(t, Config{Tracer: tracer})
	resp, body := get(t, on.URL+"/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces with tracing on: status %d", resp.StatusCode)
	}
	if strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("empty ring should serve [], got %s", body)
	}
	resp, _ = get(t, on.URL+"/debug/traces?min_ms=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad min_ms: status %d, want 400", resp.StatusCode)
	}

	post(t, on.URL+"/v1/run", runBody("reduce1d", 8, 4), nil)
	waitTraces(t, tracer, 1)
	resp, body = get(t, on.URL+"/debug/traces?min_ms=0&limit=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces after traffic: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"trace_id"`) || !strings.Contains(string(body), "http run") {
		t.Fatalf("trace listing missing expected fields: %s", body)
	}
}

// TestMetricsObservability: the new /metrics families exist and move —
// latency histograms for http and queue wait, and the runtime health
// gauges — after one served request.
func TestMetricsObservability(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/run", runBody("reduce1d", 8, 4), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	text := string(metrics)
	for _, want := range []string{
		`wse_http_request_duration_seconds_bucket{route="run",code="200",le="`,
		`wse_http_request_duration_seconds_count{route="run",code="200"}`,
		`wse_sched_queue_wait_seconds_bucket{class="`,
		`wse_sched_queue_wait_seconds_count{class="`,
		"\nwse_goroutines ",
		"\nwse_heap_alloc_bytes ",
		"\nwse_gc_pause_seconds_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The histogram buckets are cumulative and end at +Inf == _count.
	if !strings.Contains(text, `wse_http_request_duration_seconds_bucket{route="run",code="200",le="+Inf"} `) {
		t.Error("/metrics missing +Inf bucket for http duration histogram")
	}
}

// TestSlowRequestLog: a request slower than the threshold emits exactly
// one structured line carrying the trace id and a phase breakdown.
func TestSlowRequestLog(t *testing.T) {
	tracer := obs.NewTracer(obs.Config{Sample: 1})
	defer tracer.Close()
	var buf syncLogBuffer
	logger := newBufLogger(&buf)
	_, ts := newTestServer(t, Config{Tracer: tracer, SlowThreshold: time.Nanosecond, SlowLogger: logger})

	resp, body := post(t, ts.URL+"/v1/run", runBody("reduce1d", 8, 4), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	tr := waitTraces(t, tracer, 1)[0]

	deadline := time.Now().Add(2 * time.Second)
	for buf.String() == "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	line := buf.String()
	for _, want := range []string{"slow-request", "trace_id=" + tr.TraceID, "route=run", "code=200", "phases=["} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log line missing %q: %s", want, line)
		}
	}
	if !strings.Contains(line, "sched.exec=") {
		t.Errorf("slow log phases missing sched.exec self-time: %s", line)
	}
}

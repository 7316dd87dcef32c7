package obs

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisarmedIsNoop(t *testing.T) {
	if Active() {
		t.Fatal("tracer armed before any NewTracer")
	}
	ctx, s := Start(t.Context(), "anything")
	if s != nil {
		t.Fatal("Start returned a live span with no tracer armed")
	}
	// Every method must absorb the nil receiver.
	s.SetAttr("k", 1)
	s.SetError(errors.New("x"))
	s.End()
	if s.TraceID() != "" || s.Duration() != 0 || s.Phases() != nil {
		t.Error("nil span leaked state")
	}
	h := http.Header{}
	InjectHeader(ctx, h)
	if h.Get(Header) != "" {
		t.Error("InjectHeader wrote a header with no live span")
	}
	var nilTracer *Tracer
	if _, s := nilTracer.Root(t.Context(), "r", ""); s != nil {
		t.Error("nil tracer rooted a span")
	}
}

func TestSpanTreeAndCommit(t *testing.T) {
	tr := NewTracer(Config{Sample: 1})
	defer tr.Close()

	ctx, root := tr.Root(t.Context(), "http run", "")
	root.SetAttr("tenant", "fg")
	cctx, child := Start(ctx, "sched.queue")
	child.End()
	_, grand := Start(cctx, "fabric.exec")
	grand.SetAttr("cycles", 42)
	grand.End()
	root.End()

	traces := tr.Traces(0, 0)
	if len(traces) != 1 {
		t.Fatalf("committed %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Root != "http run" || !got.Sampled || got.TraceID == "" {
		t.Fatalf("trace = %+v", got)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(got.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range got.Spans {
		byName[s.Name] = s
	}
	rootRec := byName["http run"]
	if rootRec.Parent != "" || rootRec.Attrs["tenant"] != "fg" {
		t.Errorf("root record = %+v", rootRec)
	}
	if byName["sched.queue"].Parent != rootRec.ID {
		t.Error("queue span not parented to root")
	}
	if byName["fabric.exec"].Parent != byName["sched.queue"].ID {
		t.Error("exec span not parented to queue span")
	}
	if c, ok := byName["fabric.exec"].Attrs["cycles"].(int); !ok || c != 42 {
		t.Errorf("cycles attr = %v", byName["fabric.exec"].Attrs["cycles"])
	}
}

func TestHeadSamplingZeroDropsCleanTraces(t *testing.T) {
	tr := NewTracer(Config{Sample: 0})
	defer tr.Close()
	_, root := tr.Root(t.Context(), "r", "")
	root.End()
	if n := len(tr.Traces(0, 0)); n != 0 {
		t.Fatalf("unsampled clean trace committed (%d)", n)
	}
	started, committed := tr.Stats()
	if started != 1 || committed != 0 {
		t.Errorf("stats = %d started %d committed", started, committed)
	}
}

func TestTailRuleError(t *testing.T) {
	tr := NewTracer(Config{Sample: 0})
	defer tr.Close()
	ctx, root := tr.Root(t.Context(), "r", "")
	_, child := Start(ctx, "fabric.exec")
	child.SetError(errors.New("interconnect on fire"))
	child.End()
	root.End()
	traces := tr.Traces(0, 0)
	if len(traces) != 1 {
		t.Fatal("errored trace not kept despite sample=0")
	}
	if traces[0].Sampled {
		t.Error("tail-kept trace claims head sampling")
	}
}

func TestTailRuleSlow(t *testing.T) {
	tr := NewTracer(Config{Sample: 0, SlowThreshold: time.Nanosecond})
	defer tr.Close()
	_, root := tr.Root(t.Context(), "r", "")
	root.End() // any real duration >= 1ns
	if len(tr.Traces(0, 0)) != 1 {
		t.Fatal("slow trace not kept")
	}
}

func TestPropagation(t *testing.T) {
	tr := NewTracer(Config{Sample: 1})
	defer tr.Close()
	ctx, root := tr.Root(t.Context(), "front run", "")
	h := http.Header{}
	InjectHeader(ctx, h)
	tp := h.Get(Header)
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent = %q", tp)
	}

	// The next hop adopts trace id, parent span id and the sampled flag.
	tr2 := NewTracer(Config{Sample: 0})
	defer tr2.Close()
	_, root2 := tr2.Root(t.Context(), "http run", tp)
	if root2.TraceID() != root.TraceID() {
		t.Fatalf("hop did not adopt trace id: %s vs %s", root2.TraceID(), root.TraceID())
	}
	root2.End()
	root.End()
	w := tr2.Traces(0, 0)
	if len(w) != 1 {
		t.Fatal("downstream hop ignored upstream sampled flag")
	}
	if w[0].Spans[0].Parent == "" {
		t.Error("downstream root lost its remote parent id")
	}

	// Unsampled upstream: flag 00 propagates, downstream stays quiet.
	h2 := http.Header{}
	ctx3, root3 := tr2.Root(t.Context(), "front run", "")
	InjectHeader(ctx3, h2)
	if !strings.HasSuffix(h2.Get(Header), "-00") {
		t.Fatalf("unsampled traceparent = %q", h2.Get(Header))
	}
	_, root4 := tr2.Root(t.Context(), "http run", h2.Get(Header))
	root4.End()
	root3.End()
	if len(tr2.Traces(0, 0)) != 1 {
		t.Error("unsampled propagated trace was committed")
	}
}

func TestParseTraceparent(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-abc-def-01",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // wrong version
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace id
		"00-0123456789ABCDEF0123456789abcdef-0123456789abcdef-01", // uppercase
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0",  // short flags
	} {
		if _, _, _, ok := parseTraceparent(bad); ok {
			t.Errorf("parsed %q", bad)
		}
	}
	tid, pid, sampled, ok := parseTraceparent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	if !ok || tid != "0123456789abcdef0123456789abcdef" || pid != "00f067aa0ba902b7" || !sampled {
		t.Fatalf("parse = %q %q %v %v", tid, pid, sampled, ok)
	}
	if _, _, sampled, ok := parseTraceparent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-00"); !ok || sampled {
		t.Error("flags 00 parsed as sampled")
	}
}

// FuzzParseTraceparent: the header comes off the network. Whatever it
// holds the parser does not panic, and a header it accepts is exactly the
// four fields it returns, re-spelled.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-00",
		"00-00000000000000000000000000000000-0123456789abcdef-01",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-0123456789ABCDEF0123456789abcdef-0123456789abcdef-fe",
		"00-abc-def-01",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tid, pid, sampled, ok := parseTraceparent(v)
		if !ok {
			if tid != "" || pid != "" || sampled {
				t.Fatalf("parseTraceparent(%q) rejected it with fields %q %q %v", v, tid, pid, sampled)
			}
			return
		}
		flags, err := strconv.ParseUint(v[len(v)-2:], 16, 8)
		if err != nil || sampled != (flags&1 == 1) || v != fmt.Sprintf("00-%s-%s-%02x", tid, pid, flags) ||
			len(tid) != 32 || len(pid) != 16 || allZero(tid) {
			t.Fatalf("parseTraceparent(%q) = %q %q %v: not the header re-spelled", v, tid, pid, sampled)
		}
	})
}

func TestRingBoundAndFilter(t *testing.T) {
	tr := NewTracer(Config{Sample: 1, RingSize: 4})
	defer tr.Close()
	for i := 0; i < 10; i++ {
		_, root := tr.Root(t.Context(), "r", "")
		root.End()
	}
	got := tr.Traces(0, 0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	if len(tr.Traces(0, 2)) != 2 {
		t.Error("limit ignored")
	}
	if len(tr.Traces(time.Hour, 0)) != 0 {
		t.Error("minDur filter ignored")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf syncBuffer
	tr := NewTracer(Config{Sample: 1, Sink: &buf})
	defer tr.Close()
	ctx, root := tr.Root(t.Context(), "r", "")
	_, c := Start(ctx, "child")
	c.End()
	root.End()
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("sink wrote %q, want one JSON line", line)
	}
	for _, want := range []string{`"trace_id"`, `"root":"r"`, `"name":"child"`} {
		if !strings.Contains(line, want) {
			t.Errorf("sink line missing %s: %s", want, line)
		}
	}
}

func TestSpanCapDropsNotGrows(t *testing.T) {
	tr := NewTracer(Config{Sample: 1})
	defer tr.Close()
	ctx, root := tr.Root(t.Context(), "r", "")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, s := Start(ctx, "s")
		s.End()
	}
	root.End()
	got := tr.Traces(0, 1)[0]
	if len(got.Spans) > maxSpansPerTrace {
		t.Fatalf("trace grew to %d spans", len(got.Spans))
	}
	if got.Dropped == 0 {
		t.Error("dropped counter not set")
	}
}

func TestPhases(t *testing.T) {
	tr := NewTracer(Config{Sample: 1})
	defer tr.Close()
	ctx, root := tr.Root(t.Context(), "r", "")
	for i := 0; i < 2; i++ {
		_, s := Start(ctx, "sched.queue")
		s.End()
	}
	root.End()
	ph := root.Phases()
	if len(ph) != 1 || ph["sched.queue"] <= 0 {
		t.Fatalf("phases = %v", ph)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(Config{Sample: 1})
	defer tr.Close()
	ctx, root := tr.Root(t.Context(), "r", "")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, s := Start(ctx, "worker")
			s.SetAttr("i", 1)
			_, g := Start(c, "inner")
			g.End()
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	got := tr.Traces(0, 1)
	if len(got) != 1 || len(got[0].Spans) != 65 {
		t.Fatalf("concurrent trace spans = %d, want 65", len(got[0].Spans))
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(nil)
	for _, v := range []float64{0.00005, 0.003, 0.003, 0.2, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum < 50.2 || s.Sum > 50.3 {
		t.Errorf("sum = %v", s.Sum)
	}
	if s.Counts[len(s.Bounds)] != 1 {
		t.Errorf("+Inf bucket = %d, want the 50s observation", s.Counts[len(s.Bounds)])
	}
	// 0.003 lands in le=0.005 (index 8): strictly above 0.0025.
	if s.Counts[8] != 2 {
		t.Errorf("le=0.005 bucket = %d, want 2", s.Counts[8])
	}
	// Boundary is inclusive: exactly 0.00005 lands in le=0.00005.
	if s.Counts[2] != 1 {
		t.Errorf("le=0.00005 bucket = %d, want 1", s.Counts[2])
	}
	if q := s.Quantile(0.5); q <= 0 || q > 0.005 {
		t.Errorf("p50 = %v", q)
	}
}

func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec(nil)
	v.Observe(`route="run",code="200"`, 0.001)
	v.Observe(`route="run",code="200"`, 0.002)
	v.Observe(`route="run",code="500"`, 0.1)
	snap := v.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("labels = %d", len(snap))
	}
	if snap[`route="run",code="200"`].Count != 2 {
		t.Error("wrong per-label count")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum < 7.99 || s.Sum > 8.01 {
		t.Fatalf("sum drifted: %v", s.Sum)
	}
}

// syncBuffer is a mutex-guarded strings.Builder for the sink test.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

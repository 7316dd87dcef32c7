// Package obs is a stdlib-only span tracer with context propagation —
// the observability counterpart to the failpoint registry: one request
// becomes one trace, each hot seam (queue wait, resolve stage, compile,
// store I/O, fabric execution) a span inside it, and a W3C-style
// traceparent header carries the trace id across the HTTP hop so a
// request reads as a single tree from client to daemon.
//
// The discipline mirrors internal/faults: DISARMED IS ONE ATOMIC LOAD.
// While no Tracer exists (the default for every library consumer and
// benchmark), obs.Start is a single atomic load and two nil returns;
// every Span method is nil-receiver safe, so instrumented code calls
// them unconditionally. Only processes that construct a Tracer (wsed
// with tracing on, tests) pay for tracing, and only on requests that
// carry a live trace in their context.
//
// Collection is head sampling plus tail rules: the root span decides at
// birth whether the trace is head-sampled (probabilistic, or adopted
// from the incoming traceparent flags); at root End the trace commits
// to a bounded in-memory ring — and an optional JSONL sink — iff it was
// head-sampled, contains an errored span, or ran slower than the
// tracer's keep-if-slower-than threshold. Unfinished spans are never
// committed; a span that outlives its root (an abandoned task still
// draining) is dropped with the trace.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the propagation header name, W3C trace-context style:
//
//	traceparent: 00-<32 hex trace id>-<16 hex span id>-<2 hex flags>
//
// Flag bit 0x01 marks the trace head-sampled; a downstream hop adopts
// the upstream decision instead of re-rolling, so one coin flip at the
// edge governs the whole path.
const Header = "traceparent"

// active counts live Tracers process-wide. It is the disarmed fast
// path: obs.Start in a process that never built a Tracer is one atomic
// load.
var active atomic.Int32

// Active reports whether any Tracer exists (test hook).
func Active() bool { return active.Load() > 0 }

// maxSpansPerTrace bounds one trace's span list; beyond it spans are
// counted as dropped rather than recorded, so a pathological request
// (a huge batch, a retry storm) cannot balloon the ring.
const maxSpansPerTrace = 512

// Config configures a Tracer.
type Config struct {
	// Sample is the head-sampling probability in [0,1]. >=1 keeps every
	// trace, <=0 head-keeps none (tail rules below still apply).
	Sample float64
	// SlowThreshold is the keep-if-slower-than tail rule: a trace whose
	// root span ran at least this long commits even if not head-sampled.
	// 0 disables the rule.
	SlowThreshold time.Duration
	// RingSize bounds the in-memory ring of committed traces served at
	// /debug/traces. 0 means 256.
	RingSize int
	// Sink, if non-nil, receives one JSON line per committed trace.
	// Writes are serialized; a write error disables the sink.
	Sink io.Writer
}

// Tracer owns sampling policy and the committed-trace ring. Construct
// one per process that wants tracing (wsed, tests); Close it when done
// so the package-wide fast path disarms again.
type Tracer struct {
	sample float64
	slow   time.Duration

	mu      sync.Mutex
	ring    []*Trace // newest at ring[next-1], wrapping
	next    int
	wrapped bool

	sinkMu  sync.Mutex
	sink    io.Writer
	sinkErr error

	started   atomic.Int64 // root spans opened
	committed atomic.Int64 // traces kept by head or tail rules
	closed    atomic.Bool
}

// NewTracer arms tracing process-wide and returns the tracer.
func NewTracer(cfg Config) *Tracer {
	size := cfg.RingSize
	if size <= 0 {
		size = 256
	}
	t := &Tracer{
		sample: cfg.Sample,
		slow:   cfg.SlowThreshold,
		ring:   make([]*Trace, size),
		sink:   cfg.Sink,
	}
	active.Add(1)
	return t
}

// Close disarms this tracer's share of the package fast path. The ring
// stays readable; new roots become no-ops.
func (t *Tracer) Close() {
	if t != nil && t.closed.CompareAndSwap(false, true) {
		active.Add(-1)
	}
}

// Stats reports lifetime counts: root spans opened and traces kept.
func (t *Tracer) Stats() (started, committed int64) {
	if t == nil {
		return 0, 0
	}
	return t.started.Load(), t.committed.Load()
}

// trace is the live, still-recording form; Trace (exported) is the
// committed snapshot.
type trace struct {
	tracer  *Tracer
	id      string
	start   time.Time
	sampled bool

	mu      sync.Mutex
	spans   []SpanRecord // finished spans, in End order
	dropped int
	errored bool
}

// Span records one timed phase. The zero of usefulness is nil: every
// method is nil-receiver safe, so instrumented code never branches on
// whether tracing is live.
type Span struct {
	tr     *trace
	id     string
	parent string
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	err   string
	ended bool
	dur   time.Duration
	root  bool
}

// ctxKey carries the current span through context.
type ctxKey struct{}

func spanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child span under the current span in ctx, returning a
// derived context carrying the child. With no tracer armed, or no live
// trace in ctx, it returns (ctx, nil) — one atomic load on the fast
// path, and the nil Span absorbs every later method call.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if active.Load() == 0 {
		return ctx, nil
	}
	parent := spanFrom(ctx)
	if parent == nil || parent.tr == nil {
		return ctx, nil
	}
	s := &Span{
		tr:     parent.tr,
		id:     randHex(8),
		parent: parent.id,
		name:   name,
		start:  time.Now(),
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Root opens a trace's root span. traceparent, when parseable, supplies
// the trace id, remote parent span id and the sampled flag — the hop
// joins the caller's trace; otherwise a fresh trace id is rolled and
// head sampling decided locally. A nil tracer returns (ctx, nil).
func (t *Tracer) Root(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil || t.closed.Load() {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	now := time.Now()
	tr := &trace{tracer: t, start: now}
	var parent string
	if tid, pid, sampled, ok := parseTraceparent(traceparent); ok {
		tr.id, parent, tr.sampled = tid, pid, sampled
	} else {
		tr.id = randHex(16)
		tr.sampled = t.sample >= 1 || (t.sample > 0 && rand.Float64() < t.sample)
	}
	s := &Span{
		tr:     tr,
		id:     randHex(8),
		parent: parent,
		name:   name,
		start:  now,
		root:   true,
	}
	t.started.Add(1)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// SetAttr attaches a key/value to the span. Values should be JSON-basic
// (string, number, bool). Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]any, 4)
		}
		s.attrs[key] = value
	}
	s.mu.Unlock()
}

// SetError marks the span errored. An errored span anywhere in a trace
// triggers the always-keep-on-error tail rule. Nil-safe; nil err is a
// no-op.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.err = err.Error()
	}
	s.mu.Unlock()
}

// TraceID returns the trace id, "" on a nil or traceless span.
func (s *Span) TraceID() string {
	if s == nil || s.tr == nil {
		return ""
	}
	return s.tr.id
}

// Duration returns the span's recorded duration (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// End closes the span, appending it to its trace; ending the root span
// commits or discards the whole trace. Idempotent and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	rec := SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Offset:   s.start.Sub(s.tr.start),
		Duration: s.dur,
		Attrs:    s.attrs,
		Error:    s.err,
	}
	s.mu.Unlock()

	tr := s.tr
	tr.mu.Lock()
	if rec.Error != "" {
		tr.errored = true
	}
	if len(tr.spans) < maxSpansPerTrace {
		tr.spans = append(tr.spans, rec)
	} else {
		tr.dropped++
	}
	if !s.root {
		tr.mu.Unlock()
		return
	}
	errored := tr.errored
	spans := tr.spans
	dropped := tr.dropped
	tr.mu.Unlock()

	t := tr.tracer
	keep := tr.sampled || errored ||
		(t.slow > 0 && rec.Duration >= t.slow)
	if !keep || t.closed.Load() {
		return
	}
	snap := &Trace{
		TraceID:  tr.id,
		Root:     rec.Name,
		Start:    tr.start,
		Duration: rec.Duration,
		Sampled:  tr.sampled,
		Error:    rec.Error,
		Dropped:  dropped,
		Spans:    append([]SpanRecord(nil), spans...),
	}
	t.commit(snap)
}

// Phases sums finished descendant spans' durations by name — the
// breakdown a slow-request log line wants. Call on the root span after
// the handler finished (before or after End). The root's own entry is
// excluded.
func (s *Span) Phases() map[string]time.Duration {
	if s == nil || s.tr == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	out := make(map[string]time.Duration, len(s.tr.spans))
	for _, rec := range s.tr.spans {
		if rec.ID == s.id {
			continue
		}
		out[rec.Name] += rec.Duration
	}
	return out
}

func (t *Tracer) commit(snap *Trace) {
	t.committed.Add(1)
	t.mu.Lock()
	t.ring[t.next] = snap
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()

	if t.sink != nil {
		t.sinkMu.Lock()
		if t.sinkErr == nil {
			buf, err := json.Marshal(snap)
			if err == nil {
				buf = append(buf, '\n')
				_, err = t.sink.Write(buf)
			}
			t.sinkErr = err
		}
		t.sinkMu.Unlock()
	}
}

// Traces returns committed traces newest-first, those at least minDur
// long; limit caps the result when > 0.
func (t *Tracer) Traces(minDur time.Duration, limit int) []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	n := t.next
	if t.wrapped {
		n = len(t.ring)
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recent write.
		idx := t.next - 1 - i
		if idx < 0 {
			idx += len(t.ring)
		}
		tr := t.ring[idx]
		if tr == nil || tr.Duration < minDur {
			continue
		}
		out = append(out, tr)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	t.mu.Unlock()
	return out
}

// Trace is a committed trace: the snapshot the ring holds, the JSONL
// sink writes, and /debug/traces serves. Durations marshal as integer
// nanoseconds.
type Trace struct {
	TraceID  string        `json:"trace_id"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Sampled  bool          `json:"sampled"`
	Error    string        `json:"error,omitempty"`
	Dropped  int           `json:"dropped_spans,omitempty"`
	Spans    []SpanRecord  `json:"spans"`
}

// SpanRecord is one finished span inside a committed trace. Offset is
// from the trace's start, so records order and nest without clocks.
type SpanRecord struct {
	ID       string         `json:"id"`
	Parent   string         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	Offset   time.Duration  `json:"offset_ns"`
	Duration time.Duration  `json:"duration_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// InjectHeader writes the current span's traceparent into h, so the
// next HTTP hop joins this trace. No live span: no header, and the
// downstream hop roots its own trace.
func InjectHeader(ctx context.Context, h http.Header) {
	s := spanFrom(ctx)
	if s == nil || s.tr == nil {
		return
	}
	flags := 0
	if s.tr.sampled {
		flags = 1
	}
	h.Set(Header, fmt.Sprintf("00-%s-%s-%02x", s.tr.id, s.id, flags))
}

// parseTraceparent accepts the 00 version of the W3C format; anything
// else reads as "no incoming trace".
func parseTraceparent(v string) (traceID, parentID string, sampled, ok bool) {
	// 2 + 1 + 32 + 1 + 16 + 1 + 2
	if len(v) != 55 || v[0:2] != "00" || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", "", false, false
	}
	traceID, parentID = v[3:35], v[36:52]
	if !isHex(traceID) || !isHex(parentID) || !isHex(v[53:55]) || allZero(traceID) {
		return "", "", false, false
	}
	return traceID, parentID, hexVal(v[54])&1 == 1, true
}

func hexVal(c byte) int {
	if c >= 'a' {
		return int(c-'a') + 10
	}
	return int(c - '0')
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

const hexDigits = "0123456789abcdef"

// randHex returns 2n lowercase hex digits from the shared PRNG —
// trace/span ids need uniqueness, not cryptographic strength.
func randHex(n int) string {
	b := make([]byte, 2*n)
	for i := 0; i < len(b); i += 2 {
		v := rand.Uint32()
		b[i] = hexDigits[v&0xf]
		b[i+1] = hexDigits[(v>>4)&0xf]
	}
	return string(b)
}

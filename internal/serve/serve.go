// Package serve is the HTTP layer of the wsed daemon: the Shape-first
// verbs (Run, Predict, Bound, Submit) over JSON, in front of a
// wse.Session. The package holds everything testable without a socket —
// handlers, tenant mapping, error translation, drain sequencing, the job
// registry, /metrics rendering — so cmd/wsed is only flag parsing, a
// net/http listener and signal wiring.
//
// Endpoints:
//
//	POST /v1/run      {"shape": {...}, "inputs": [[...], ...]} -> result
//	POST /v1/predict  {"shape": {...}}                         -> model estimate
//	POST /v1/bound    {"shape": {...}}                         -> runtime lower bound
//	POST /v1/submit   run's async twin                         -> {"id": "..."} (202)
//	GET  /v1/jobs/{id}                                         -> pending | done | failed
//	POST /v1/warm     {"shapes": [{...}, ...]}                 -> per-shape outcome
//	GET  /healthz                                              -> 200, or 503 when draining
//	GET  /metrics                                              -> Prometheus text format
//
// Tenancy is an identity header (X-WSE-Tenant, or Authorization: Bearer
// <name>) mapped to Session.WithTenant: names registered at startup keep
// their configured QoS class, unknown names are admitted under the
// configured default TenantConfig, and no header serves under the
// session's default tenant. The scheduler's typed failures translate to
// transport-level contracts: ErrOverloaded becomes 429 with a
// Retry-After hint, ErrBadShape 400, a draining or closed daemon 503.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	wse "repro"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config assembles a Server. Session is required; everything else has a
// serving-grade default.
type Config struct {
	// Session executes every request. The Server owns its shutdown:
	// Drain closes it.
	Session *wse.Session
	// Store, when non-nil, is the session's attached plan store; /metrics
	// then exposes its counters alongside the cache's.
	Store *wse.PlanStore
	// DefaultTenant is the QoS config under which unknown tenant names
	// are admitted. The zero value is a weight-1 Batch tenant with the
	// default queue bound.
	DefaultTenant wse.TenantConfig
	// Tenants pre-registers named tenants with explicit QoS configs.
	Tenants []TenantSpec
	// RetryAfter is the floor (and no-signal fallback) of the 429
	// Retry-After hint (default 1s). The hint itself is derived per
	// response from live scheduler load; see retryAfter.
	RetryAfter time.Duration
	// RequestTimeout bounds every synchronous API request server-side
	// (0 = unbounded): the request's context carries the deadline, so an
	// expired request is shed from the scheduler queue — or aborted
	// mid-simulation by the fabric watchdog — and answered 504. Clients
	// can only tighten it, per request, with an X-WSE-Deadline-Ms header.
	RequestTimeout time.Duration
	// JobTTL bounds how long a completed async job stays pollable
	// (default 5m).
	JobTTL time.Duration
	// MaxBody caps request body size in bytes (default 64 MiB — a full
	// 750×994 wafer of B=16 float32 vectors fits with headroom).
	MaxBody int64
	// Tracer, when non-nil, opens one root span per API request (joining
	// the caller's trace via the traceparent header) and serves the
	// committed-trace ring at GET /debug/traces. Nil disables tracing;
	// the cost then is one atomic load per instrumented seam.
	Tracer *obs.Tracer
	// SlowThreshold, when > 0, logs one structured line (trace id,
	// tenant, route, phase breakdown) per request at least this slow,
	// rate-limited to avoid log storms under overload.
	SlowThreshold time.Duration
	// SlowLogger receives the slow-request lines (default log.Default()).
	SlowLogger *log.Logger
}

// Server is the daemon's handler set. Create with New, mount via
// Handler, stop via Drain.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	jobs *jobRegistry
	http httpStats

	// httpDur is the wse_http_request_duration_seconds histogram, one
	// child per route+code, observed by the api middleware for every
	// request whether or not tracing is enabled.
	httpDur *obs.HistogramVec
	slowLim slowLimiter
	rt      runtimeStatsCache

	// httpPanics counts panics recovered in the HTTP middleware (handler
	// bugs, injected serve.* panic failpoints) — the layer above the
	// scheduler's own Stats().Panics.
	httpPanics atomic.Int64

	draining atomic.Bool
	drainMu  sync.RWMutex // held shared by in-flight requests, exclusively by Drain

	stopSweep chan struct{}
	sweepDone chan struct{}
	sweepOnce sync.Once

	mu      sync.Mutex
	tenants map[string]*wse.Tenant
}

// New assembles a Server over the session. It does not listen; mount
// Handler on any net/http server (or httptest).
func New(cfg Config) *Server {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	if cfg.SlowLogger == nil {
		cfg.SlowLogger = log.Default()
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		jobs:      newJobRegistry(cfg.JobTTL),
		httpDur:   obs.NewHistogramVec(nil),
		tenants:   make(map[string]*wse.Tenant),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	for _, ts := range cfg.Tenants {
		s.tenants[ts.Name] = cfg.Session.WithTenant(ts.Name, ts.Cfg)
	}
	go s.sweeper()
	s.mux.HandleFunc("POST /v1/run", s.api("run", s.handleRun))
	s.mux.HandleFunc("POST /v1/predict", s.api("predict", s.handlePredict))
	s.mux.HandleFunc("POST /v1/bound", s.api("bound", s.handleBound))
	s.mux.HandleFunc("POST /v1/submit", s.api("submit", s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.api("jobs", s.handleJob))
	s.mux.HandleFunc("POST /v1/warm", s.api("warm", s.handleWarm))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// StartDrain stops admission: API requests arriving after it return 503
// and /healthz flips unhealthy, while requests already in flight keep
// running. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain is the full graceful stop: stop admission and the job sweeper,
// wait for every in-flight request, then close the session (draining its
// queues and worker pool). After Drain the Server only answers /healthz
// (503) and /metrics.
func (s *Server) Drain() error {
	s.StartDrain()
	s.stopSweeper()
	s.drainMu.Lock() // barrier: every in-flight request holds an RLock
	s.drainMu.Unlock()
	return s.cfg.Session.Close()
}

// sweeper is the job registry's background GC: abandoned submit jobs
// are reclaimed on a timer even if /v1/jobs is never polled again. It
// runs from New until Drain (or stopSweeper).
func (s *Server) sweeper() {
	defer close(s.sweepDone)
	t := time.NewTicker(sweepInterval(s.jobs.ttl))
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-t.C:
			s.jobs.sweep()
		}
	}
}

// sweepInterval picks the sweeper period: a quarter TTL bounds a job's
// post-TTL overstay at ~25%, clamped so tiny test TTLs don't spin and
// huge TTLs still sweep often enough to see a drain promptly.
func sweepInterval(ttl time.Duration) time.Duration {
	iv := ttl / 4
	if iv < 50*time.Millisecond {
		iv = 50 * time.Millisecond
	}
	if iv > 30*time.Second {
		iv = 30 * time.Second
	}
	return iv
}

// stopSweeper halts the background job GC and waits for it to exit.
// Idempotent; Drain calls it.
func (s *Server) stopSweeper() {
	s.sweepOnce.Do(func() { close(s.stopSweep) })
	<-s.sweepDone
}

// deadlineHeader is the client's per-request deadline budget in
// milliseconds. It can only tighten the server's RequestTimeout, never
// extend it.
const deadlineHeader = "X-WSE-Deadline-Ms"

// requestTimeout resolves one request's effective deadline budget:
// the tighter of the server-wide RequestTimeout and the client's
// X-WSE-Deadline-Ms header (malformed or non-positive headers are
// ignored). Zero means unbounded.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	d := s.cfg.RequestTimeout
	if h := r.Header.Get(deadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			if hd := time.Duration(ms) * time.Millisecond; d <= 0 || hd < d {
				d = hd
			}
		}
	}
	return d
}

// api wraps an endpoint handler with the serving middleware: drain
// gating, in-flight accounting, per-endpoint status metrics and the
// request-duration histogram, the per-request root trace span (joining
// the caller's trace via traceparent), failpoints, the per-request
// deadline, the slow-request log, and panic isolation — a handler
// panic (or an injected serve.<endpoint> panic) is recovered into a
// typed 500 instead of crashing the daemon's connection goroutine.
func (s *Server) api(endpoint string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		ctx, span := s.cfg.Tracer.Root(r.Context(), "http "+endpoint, r.Header.Get(obs.Header))
		if span != nil {
			span.SetAttr("tenant", tenantName(r))
			r = r.WithContext(ctx)
		}
		defer func() {
			code := sw.code()
			s.http.record(endpoint, code)
			dur := time.Since(start)
			s.httpDur.Observe(httpLabel(endpoint, code), dur.Seconds())
			if code >= 500 {
				span.SetError(fmt.Errorf("http %d", code))
			}
			span.SetAttr("code", code)
			span.End()
			s.maybeLogSlow(endpoint, r, span, code, dur)
		}()
		defer func() {
			if rec := recover(); rec != nil {
				s.httpPanics.Add(1)
				// Only answer if the handler hadn't already written: a
				// panic after a partial response can't be un-sent, and a
				// second WriteHeader would just add log noise.
				if sw.wrote == 0 {
					s.writeError(sw, http.StatusInternalServerError,
						fmt.Sprintf("%v: handler panicked: %v", wse.ErrInternal, rec))
				}
			}
		}()
		if s.draining.Load() {
			s.writeError(sw, http.StatusServiceUnavailable, "draining")
			return
		}
		s.drainMu.RLock()
		defer s.drainMu.RUnlock()
		if s.draining.Load() { // drain began between the check and the lock
			s.writeError(sw, http.StatusServiceUnavailable, "draining")
			return
		}
		if err := faults.Inject("serve." + endpoint); err != nil {
			s.writeError(sw, http.StatusInternalServerError, err.Error())
			return
		}
		if d := s.requestTimeout(r); d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBody)
		h(sw, r)
	}
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	wrote int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.wrote == 0 {
		w.wrote = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.wrote == 0 {
		w.wrote = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) code() int {
	if w.wrote == 0 {
		return http.StatusOK
	}
	return w.wrote
}

// verbs is the slice of the Session/Tenant surface the daemon serves;
// both *wse.Session (the default tenant) and *wse.Tenant satisfy it.
type verbs interface {
	Run(ctx context.Context, sh wse.Shape, inputs [][]float32, opts ...wse.Option) (*wse.Report, error)
	Submit(ctx context.Context, sh wse.Shape, inputs [][]float32, opts ...wse.Option) *wse.Future
}

// tenantName extracts the caller's tenant identity: the X-WSE-Tenant
// header, else a bearer token (the token IS the tenant name — wsed
// deployments front real credential checking with their ingress, and the
// mapping layer here is where a verifier would slot in).
func tenantName(r *http.Request) string {
	if name := r.Header.Get("X-WSE-Tenant"); name != "" {
		return name
	}
	if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
		return auth[7:]
	}
	return ""
}

// verbsFor maps the request's tenant identity to a serving handle: a
// pre-registered tenant keeps its configured QoS, an unknown name is
// registered under the default TenantConfig on first sight, no identity
// serves as the session's default tenant.
func (s *Server) verbsFor(r *http.Request) verbs {
	name := tenantName(r)
	if name == "" {
		return s.cfg.Session
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = s.cfg.Session.WithTenant(name, s.cfg.DefaultTenant)
		s.tenants[name] = t
	}
	return t
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSecs(), 10))
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// retryAfterSecs derives the 429 Retry-After hint from live load: the
// queue's expected drain time under current depth and recent execution
// p50. With no latency signal yet it falls back to cfg.RetryAfter.
func (s *Server) retryAfterSecs() int64 {
	st := s.cfg.Session.SchedStats()
	var p50 time.Duration
	for _, t := range st.Tenants {
		if t.ExecP50 > p50 {
			p50 = t.ExecP50
		}
	}
	d := deriveRetryAfter(st.Pool.Depth, st.Pool.Workers, p50, s.cfg.RetryAfter)
	return int64(math.Ceil(d.Seconds()))
}

// deriveRetryAfter estimates when an overloaded tenant should come back:
// the current backlog takes ~depth/workers serial rounds of the recent
// p50 to drain, plus one round for the retry itself. The estimate is
// clamped to [max(1s, floor), 30s] — a hint, not a promise, so it errs
// toward the polite side on both ends. With no p50 signal (an idle or
// freshly started pool) it returns the clamped floor.
func deriveRetryAfter(depth, workers int, p50, floor time.Duration) time.Duration {
	lo := floor
	if lo < time.Second {
		lo = time.Second
	}
	const hi = 30 * time.Second
	if p50 <= 0 {
		return lo
	}
	if workers < 1 {
		workers = 1
	}
	d := time.Duration(depth/workers+1) * p50
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// errorCode maps the wse error taxonomy onto HTTP statuses. The typed
// errors carry the contract: overload is the backpressure signal a
// client should retry after a delay, a bad shape will never succeed, a
// closed session means the process is going away, a blown deadline is
// the gateway-timeout the client itself asked for, and a recovered
// panic (ErrInternal) — like any unclassified failure — is a 500 that
// indicts only its own request.
func errorCode(err error) int {
	switch {
	case errors.Is(err, wse.ErrBadShape):
		return http.StatusBadRequest
	case errors.Is(err, wse.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, wse.ErrSessionClosed), errors.Is(err, wse.ErrTenantRemoved):
		return http.StatusServiceUnavailable
	case errors.Is(err, wse.ErrDeadline),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, wse.ErrInternal):
		return http.StatusInternalServerError
	}
	return http.StatusInternalServerError
}

func (s *Server) writeVerbError(w http.ResponseWriter, err error) {
	s.writeError(w, errorCode(err), err.Error())
}

// writeJSON encodes before it commits the status: a value JSON cannot
// carry (a non-finite float, say) becomes a typed 500 the client can read,
// never a success header over an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		json.NewEncoder(&buf).Encode(errorResponse{Error: "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// decode parses a JSON request body, mapping malformed JSON to 400 and a
// body over MaxBody to 413. The span makes wire-side work visible in
// traces: on big inputs the JSON decode is a real phase of the request, not
// tracer dark matter.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	_, sp := obs.Start(r.Context(), "serve.decode")
	err := json.NewDecoder(r.Body).Decode(v)
	sp.SetError(err)
	sp.End()
	return s.bodyOK(w, err)
}

// decodeRun is decode for the bodies that carry a shape and vectors (run,
// submit, predict, bound): the body is read whole and goes through the
// wire codec, which walks the plain spelling itself and delegates any
// other to encoding/json. The span says how many bytes came and which of
// the two the client's spelling took.
func (s *Server) decodeRun(w http.ResponseWriter, r *http.Request, req *runRequest) bool {
	_, sp := obs.Start(r.Context(), "serve.decode")
	body, err := readBody(r)
	sp.SetAttr("bytes", len(body))
	if err == nil {
		var walked bool
		walked, err = wire.DecodeRunRequest(body, req)
		envelope := "delegated"
		if walked {
			envelope = "walked"
		}
		sp.SetAttr("envelope", envelope)
	}
	sp.SetError(err)
	sp.End()
	return s.bodyOK(w, err)
}

func (s *Server) bodyOK(w http.ResponseWriter, err error) bool {
	if err != nil {
		code, msg := bodyError(err)
		s.writeError(w, code, msg)
	}
	return err == nil
}

// bodyError is the answer to a request body that could not be read or
// parsed: 413 when it ran into the MaxBytesReader's limit, 400 otherwise.
func bodyError(err error) (code int, msg string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", tooLarge.Limit)
	}
	return http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err)
}

// maxBodyPresize caps what a request's Content-Length may make readBody
// allocate before a byte of the body has arrived.
const maxBodyPresize = 1 << 20

// readBody reads a request body whole, in one allocation when the
// Content-Length header is honest: the buffer is sized from it, up to
// maxBodyPresize whatever it claims, and doubles from there. The caller's
// MaxBytesReader still bounds the total.
func readBody(r *http.Request) ([]byte, error) {
	size := bytes.MinRead // ReadFrom wants this much room before each read, the one that finds EOF too
	if n := r.ContentLength; n > 0 {
		size += int(min(n, maxBodyPresize))
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// writeJSONCtx is writeJSON under a "serve.encode" span — used on the
// result-bearing paths where response assembly and serialization are a
// measurable phase of the request.
func writeJSONCtx(ctx context.Context, w http.ResponseWriter, code int, v any) {
	_, sp := obs.Start(ctx, "serve.encode")
	writeJSON(w, code, v)
	sp.End()
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !s.decodeRun(w, r, &req) {
		return
	}
	sh, err := ShapeOf(req.Shape)
	if err != nil {
		s.writeVerbError(w, err)
		return
	}
	rep, err := s.verbsFor(r).Run(r.Context(), sh, req.Inputs)
	if err != nil {
		s.writeVerbError(w, err)
		return
	}
	writeJSONCtx(r.Context(), w, http.StatusOK, reportWire(rep))
}

// handleEstimate is the shared shape->number tail of /v1/predict and
// /v1/bound. Both model verbs are total (unknown shapes estimate to
// NaN), so the daemon validates first to keep the 400 contract.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, field string, f func(wse.Shape) float64) {
	var req runRequest // inputs, if any were sent, are not used
	if !s.decodeRun(w, r, &req) {
		return
	}
	sh, err := ShapeOf(req.Shape)
	if err == nil {
		err = sh.Validate()
	}
	if err != nil {
		s.writeVerbError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]*float64{field: finiteOrNil(f(sh))})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.handleEstimate(w, r, "predicted_cycles", func(sh wse.Shape) float64 { return s.cfg.Session.Predict(sh) })
}

func (s *Server) handleBound(w http.ResponseWriter, r *http.Request) {
	s.handleEstimate(w, r, "bound_cycles", func(sh wse.Shape) float64 { return s.cfg.Session.Bound(sh) })
}

// idempotencyHeader carries a client-generated key that makes submit
// safe to retry: a resubmission bearing the key of a still-registered
// job gets that job's id back instead of enqueuing duplicate work. Keys
// are scoped per tenant and live exactly as long as their job (TTL after
// completion), which is the retry window the async tier promises.
const idempotencyHeader = "X-WSE-Idempotency-Key"

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !s.decodeRun(w, r, &req) {
		return
	}
	sh, err := ShapeOf(req.Shape)
	if err != nil {
		s.writeVerbError(w, err)
		return
	}
	name := tenantName(r)
	key := r.Header.Get(idempotencyHeader)
	if id, ok := s.jobs.byKey(name, key); ok {
		writeJSON(w, http.StatusAccepted, submitResponse{ID: id, URL: "/v1/jobs/" + id})
		return
	}
	// Jobs are detached from the submitting connection: Background, not
	// r.Context(), or closing the HTTP client would cancel the work the
	// async tier exists to decouple.
	fut := s.verbsFor(r).Submit(context.Background(), sh, req.Inputs)
	// Admission control and validation resolve synchronously; surface
	// those failures on the submit itself so a rejected job never gets
	// an id (and the 429 Retry-After contract holds on this path too).
	select {
	case <-fut.Done():
		if err := fut.Err(); err != nil {
			s.writeVerbError(w, err)
			return
		}
	default:
	}
	id := s.jobs.add(fut, name, key)
	writeJSON(w, http.StatusAccepted, submitResponse{ID: id, URL: "/v1/jobs/" + id})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	select {
	case <-j.fut.Done():
		rep, err := j.fut.Wait()
		if err != nil {
			writeJSON(w, http.StatusOK, jobResponse{ID: id, State: "failed", Error: err.Error()})
			return
		}
		wire := reportWire(rep)
		writeJSONCtx(r.Context(), w, http.StatusOK, jobResponse{ID: id, State: "done", Result: &wire})
	default:
		writeJSON(w, http.StatusOK, jobResponse{ID: id, State: "pending"})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

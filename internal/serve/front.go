package serve

// Front is the fleet's thin routing tier: a daemon that owns no session
// and simulates nothing, it consistent-hashes each request's canonical
// plan key across the worker fleet and forwards the raw request. Every
// shape therefore lands on the same worker every time, so each worker's
// plan-cache LRU stays hot on its own key slice instead of all workers
// caching all keys — the fleet's aggregate cache capacity becomes the
// sum of the workers', not the max.
//
// Failover is the ring's successor order: a worker that refuses a
// connection (or answers 502/503) is marked down for a cooldown and the
// request is re-forwarded to the next candidate, so killing a worker
// mid-load sheds its key slice onto deterministic survivors — the same
// survivor per key, keeping even the shed traffic cache-friendly — with
// no client-visible failure. Async jobs stay pollable through the
// front: submit responses get the worker's index prefixed onto the job
// id (w0.<id>), and /v1/jobs routes the poll back by that prefix.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	wse "repro"
	"repro/internal/obs"
	"repro/internal/resolve"
)

// FrontConfig assembles a Front. Workers is required.
type FrontConfig struct {
	// Workers are the fleet members' base URLs, e.g.
	// ["http://10.0.0.1:8080", "http://10.0.0.2:8080"].
	Workers []string
	// Options must match the workers' session options (fabric geometry
	// knobs change plan identity): the front hashes the same canonical
	// keys the workers cache under. The zero value matches workers run
	// with default options.
	Options wse.Options
	// Replicas is the ring's virtual-node count per worker (<= 0 selects
	// resolve.DefaultRingReplicas).
	Replicas int
	// Cooldown is how long a failed worker stays marked down before
	// traffic is hashed back to it (default 3s).
	Cooldown time.Duration
	// MaxBody caps request body size in bytes (default 64 MiB).
	MaxBody int64
	// Client overrides the forwarding transport (default: plain
	// http.Client). Per-request deadlines ride the incoming request's
	// context, which the outgoing request inherits.
	Client *http.Client
	// Tracer, when set, opens a root span per routed request and injects
	// the traceparent into forwarded requests, so a worker's root span
	// joins the front's trace. Nil disables tracing (zero overhead).
	Tracer *obs.Tracer
}

// Front routes Shape traffic across a worker fleet by consistent hash.
// Create with NewFront, mount via Handler.
type Front struct {
	cfg  FrontConfig
	ring *resolve.Ring
	hc   *http.Client
	mux  *http.ServeMux
	http httpStats

	forwards  atomic.Int64 // requests forwarded (first candidate)
	failovers atomic.Int64 // re-forwards after a candidate failed
	exhausted atomic.Int64 // requests that ran out of candidates (502)

	mu   sync.Mutex
	down map[string]time.Time // worker -> downed-at
}

// NewFront assembles a Front over the worker list.
func NewFront(cfg FrontConfig) *Front {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 3 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	f := &Front{
		cfg:  cfg,
		ring: resolve.NewRing(cfg.Workers, cfg.Replicas),
		hc:   hc,
		mux:  http.NewServeMux(),
		down: make(map[string]time.Time),
	}
	for _, ep := range []string{"run", "predict", "bound", "submit", "warm"} {
		f.mux.HandleFunc("POST /v1/"+ep, f.route(ep))
	}
	f.mux.HandleFunc("GET /v1/jobs/{id}", f.handleJob)
	f.mux.HandleFunc("GET /healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /metrics", f.handleMetrics)
	f.mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		serveTraces(f.cfg.Tracer, w, r)
	})
	return f
}

// Handler returns the front's HTTP handler.
func (f *Front) Handler() http.Handler { return f.mux }

// shapeProbe is the slice of every verb body the front needs: just the
// shape, to derive the routing key. Inputs pass through untouched.
type shapeProbe struct {
	Shape ShapeWire `json:"shape"`
}

// route builds the handler for one forwarded verb endpoint.
func (f *Front) route(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		ctx, span := f.cfg.Tracer.Root(r.Context(), "front "+endpoint, r.Header.Get(obs.Header))
		if span != nil {
			span.SetAttr("tenant", tenantName(r))
			r = r.WithContext(ctx)
		}
		defer func() {
			code := sw.code()
			f.http.record(endpoint, code)
			if code >= 500 {
				span.SetError(fmt.Errorf("http %d", code))
			}
			span.SetAttr("code", code)
			span.End()
		}()
		r.Body = http.MaxBytesReader(sw, r.Body, f.cfg.MaxBody)
		body, err := readBody(r)
		if err != nil {
			code, msg := bodyError(err)
			f.writeError(sw, code, msg)
			return
		}
		key, err := f.routingKey(endpoint, body)
		if err != nil {
			f.writeError(sw, http.StatusBadRequest, err.Error())
			return
		}
		f.forward(sw, r, endpoint, key, body)
	}
}

// routingKey derives the consistent-hash key for a request body. Verb
// bodies carry one shape; warm bodies carry a list — the first shape
// routes the whole batch (callers warming a fleet hit every worker
// directly or send one shape per request for exact placement).
func (f *Front) routingKey(endpoint string, body []byte) (string, error) {
	if endpoint == "warm" {
		var wr warmRequest
		if err := json.Unmarshal(body, &wr); err != nil || len(wr.Shapes) == 0 {
			return "", fmt.Errorf("bad warm body: want {\"shapes\": [...]}")
		}
		sh, err := ShapeOf(wr.Shapes[0])
		if err != nil {
			return "", err
		}
		return wse.KeyString(sh, f.cfg.Options), nil
	}
	var probe shapeProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		return "", fmt.Errorf("bad request body: %v", err)
	}
	sh, err := ShapeOf(probe.Shape)
	if err != nil {
		return "", err
	}
	return wse.KeyString(sh, f.cfg.Options), nil
}

// forward sends the request down the key's candidate list until a
// worker answers. A transport failure or a 502/503 marks the worker
// down (cooldown) and moves on; any other response — including the
// request's own 4xx/5xx — is the worker's answer and streams through.
func (f *Front) forward(w *statusWriter, r *http.Request, endpoint, key string, body []byte) {
	candidates := f.candidates(key)
	if len(candidates) == 0 {
		f.exhausted.Add(1)
		f.writeError(w, http.StatusBadGateway, "no workers configured")
		return
	}
	f.forwards.Add(1)
	var lastErr string
	for i, worker := range candidates {
		if i > 0 {
			f.failovers.Add(1)
		}
		fctx, fspan := obs.Start(r.Context(), "front.forward")
		fspan.SetAttr("worker", worker)
		req, err := http.NewRequestWithContext(fctx, r.Method, worker+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			fspan.SetError(err)
			fspan.End()
			f.writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		copyForwardHeaders(req.Header, r.Header)
		obs.InjectHeader(fctx, req.Header)
		resp, err := f.hc.Do(req)
		if err != nil {
			fspan.SetError(err)
			fspan.End()
			f.markDown(worker)
			lastErr = err.Error()
			continue
		}
		if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
			// The worker is up but refusing (draining, dying): shed its
			// keys to the ring successor like a dead worker's.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			f.markDown(worker)
			lastErr = fmt.Sprintf("worker %s: status %d", worker, resp.StatusCode)
			fspan.SetError(fmt.Errorf("worker %s: status %d", worker, resp.StatusCode))
			fspan.End()
			continue
		}
		fspan.SetAttr("status", resp.StatusCode)
		f.relay(w, resp, endpoint, indexOf(f.cfg.Workers, worker))
		fspan.End()
		return
	}
	f.exhausted.Add(1)
	f.writeError(w, http.StatusBadGateway, "all workers failed: "+lastErr)
}

// relay streams a worker's response to the client. Submit 202 bodies
// are rewritten to prefix the worker index onto the job id, so the
// front can route the poll back to the owning worker.
func (f *Front) relay(w *statusWriter, resp *http.Response, endpoint string, workerIdx int) {
	defer resp.Body.Close()
	if endpoint == "submit" && resp.StatusCode == http.StatusAccepted && workerIdx >= 0 {
		var sr submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err == nil {
			id := fmt.Sprintf("w%d.%s", workerIdx, sr.ID)
			writeJSON(w, http.StatusAccepted, submitResponse{ID: id, URL: "/v1/jobs/" + id})
			return
		}
		f.writeError(w, http.StatusBadGateway, "worker sent unparseable submit response")
		return
	}
	copyResponseHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleJob routes a poll back to the worker that owns the job, by the
// index prefix relay stamped onto the id at submit time.
func (f *Front) handleJob(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	defer func() { f.http.record("jobs", sw.code()) }()
	id := r.PathValue("id")
	rest, idx := "", -1
	if n, r2, ok := splitJobID(id); ok && n < len(f.cfg.Workers) {
		idx, rest = n, r2
	}
	if idx < 0 {
		f.writeError(sw, http.StatusNotFound, "unknown job "+id)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), "GET", f.cfg.Workers[idx]+"/v1/jobs/"+rest, nil)
	if err != nil {
		f.writeError(sw, http.StatusInternalServerError, err.Error())
		return
	}
	copyForwardHeaders(req.Header, r.Header)
	resp, err := f.hc.Do(req)
	if err != nil {
		f.writeError(sw, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", f.cfg.Workers[idx], err))
		return
	}
	defer resp.Body.Close()
	// Job ids inside the response body keep the worker's spelling; the
	// client polls by the prefixed id it was given, so only the id field
	// needs re-prefixing — but the body is small and the state machine
	// matters more than the echo, so stream it through unchanged.
	copyResponseHeaders(sw.Header(), resp.Header)
	sw.WriteHeader(resp.StatusCode)
	io.Copy(sw, resp.Body)
}

// splitJobID parses "w<idx>.<rest>".
func splitJobID(id string) (idx int, rest string, ok bool) {
	if !strings.HasPrefix(id, "w") {
		return 0, "", false
	}
	head, rest, found := strings.Cut(id[1:], ".")
	if !found || rest == "" {
		return 0, "", false
	}
	n, err := strconv.Atoi(head)
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, rest, true
}

// candidates returns the key's workers in preference order with
// cooled-down members moved to the back (not dropped: when every worker
// is marked down the front still tries them all rather than failing
// without a network attempt).
func (f *Front) candidates(key string) []string {
	picks := f.ring.Pick(key)
	now := time.Now()
	up := picks[:0:0]
	var cooled []string
	f.mu.Lock()
	for _, w := range picks {
		if t, bad := f.down[w]; bad {
			if now.Sub(t) < f.cfg.Cooldown {
				cooled = append(cooled, w)
				continue
			}
			delete(f.down, w) // cooldown elapsed: eligible again
		}
		up = append(up, w)
	}
	f.mu.Unlock()
	return append(up, cooled...)
}

func (f *Front) markDown(worker string) {
	f.mu.Lock()
	f.down[worker] = time.Now()
	f.mu.Unlock()
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// The front is healthy while at least one worker is not marked down;
	// a fully-downed fleet answers 503 so the front's own health check
	// trips.
	f.mu.Lock()
	downed := len(f.down)
	f.mu.Unlock()
	if downed >= len(f.cfg.Workers) {
		http.Error(w, "all workers down", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE wse_front_forwards_total counter\nwse_front_forwards_total %d\n", f.forwards.Load())
	fmt.Fprintf(&b, "# TYPE wse_front_failovers_total counter\nwse_front_failovers_total %d\n", f.failovers.Load())
	fmt.Fprintf(&b, "# TYPE wse_front_exhausted_total counter\nwse_front_exhausted_total %d\n", f.exhausted.Load())
	f.mu.Lock()
	downed := len(f.down)
	f.mu.Unlock()
	fmt.Fprintf(&b, "# TYPE wse_front_workers gauge\nwse_front_workers %d\n", len(f.cfg.Workers))
	fmt.Fprintf(&b, "# TYPE wse_front_workers_down gauge\nwse_front_workers_down %d\n", downed)
	counts := f.http.snapshot()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("# TYPE wse_front_http_requests_total counter\n")
	for _, k := range keys {
		ep, code, _ := strings.Cut(k, "|")
		fmt.Fprintf(&b, "wse_front_http_requests_total{endpoint=%q,code=%q} %d\n", ep, code, counts[k])
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

func (f *Front) writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// copyForwardHeaders forwards the identity and control headers the
// workers act on; hop-by-hop and transport headers stay behind.
func copyForwardHeaders(dst, src http.Header) {
	for _, h := range []string{"X-WSE-Tenant", "Authorization", "X-WSE-Deadline-Ms", "X-WSE-Idempotency-Key", "Content-Type"} {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

func copyResponseHeaders(dst, src http.Header) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

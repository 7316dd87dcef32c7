package serve

// The trace-serving surface: GET /debug/traces exports the tracer's
// committed ring as JSON, and the slow-request log turns an
// over-threshold request into one structured line with the trace id and
// per-phase breakdown — the "why was THAT request slow" answer without
// scraping the ring.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// handleTraces serves the committed-trace ring, newest first.
//
//	GET /debug/traces?min_ms=50&limit=20
//
// min_ms filters to traces at least that slow; limit caps the count.
// With tracing disabled the endpoint answers 404, so probes can tell
// "off" from "no traces yet" (200 with an empty list).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	t := s.cfg.Tracer
	if t == nil {
		http.Error(w, `{"error": "tracing disabled"}`, http.StatusNotFound)
		return
	}
	var minDur time.Duration
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			http.Error(w, `{"error": "bad min_ms"}`, http.StatusBadRequest)
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, `{"error": "bad limit"}`, http.StatusBadRequest)
			return
		}
		limit = n
	}
	traces := t.Traces(minDur, limit)
	if traces == nil {
		traces = []*obs.Trace{}
	}
	writeJSON(w, http.StatusOK, traces)
}

// httpLabel renders one request's histogram label body.
func httpLabel(route string, code int) string {
	return `route="` + route + `",code="` + strconv.Itoa(code) + `"`
}

// slowLimiter is a token bucket bounding slow-request log lines: burst
// of 5, refilling one per second — under overload, when everything is
// slow, the log records a sample instead of a storm.
type slowLimiter struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func (l *slowLimiter) allow(now time.Time) bool {
	const burst, perSecond = 5, 1
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last.IsZero() {
		l.tokens = burst
	} else {
		l.tokens += now.Sub(l.last).Seconds() * perSecond
		if l.tokens > burst {
			l.tokens = burst
		}
	}
	l.last = now
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}

// maybeLogSlow emits the slow-request line when the request cleared the
// threshold and the rate limiter admits it. The phase breakdown comes
// from the trace's finished child spans; without tracing the line still
// carries route/tenant/code/duration.
func (s *Server) maybeLogSlow(endpoint string, r *http.Request, span *obs.Span, code int, dur time.Duration) {
	if s.cfg.SlowThreshold <= 0 || dur < s.cfg.SlowThreshold || !s.slowLim.allow(time.Now()) {
		return
	}
	s.cfg.SlowLogger.Printf("slow-request trace_id=%s route=%s tenant=%q code=%d dur_ms=%.1f phases=[%s]",
		span.TraceID(), endpoint, tenantName(r), code,
		float64(dur)/float64(time.Millisecond), formatPhases(span.Phases()))
}

// formatPhases renders a phase map as "name=ms name=ms", slowest first,
// so the log line reads as the latency attribution at a glance.
func formatPhases(ph map[string]time.Duration) string {
	if len(ph) == 0 {
		return ""
	}
	names := make([]string, 0, len(ph))
	for name := range ph {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if ph[names[i]] != ph[names[j]] {
			return ph[names[i]] > ph[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1fms", name, float64(ph[name])/float64(time.Millisecond))
	}
	return b.String()
}

package serve

// /metrics in Prometheus text exposition format, hand-rolled — the
// counters all exist already on the public wse surface (PlanStats,
// SchedStats, PlanStore.Stats), so the daemon only formats snapshots;
// it never reaches into internals and needs no client library.

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	wse "repro"

	"repro/internal/obs"
)

// httpStats counts requests per endpoint and status code.
type httpStats struct {
	mu     sync.Mutex
	counts map[string]int64 // `endpoint|code` -> count
}

func (h *httpStats) record(endpoint string, code int) {
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make(map[string]int64)
	}
	h.counts[fmt.Sprintf("%s|%d", endpoint, code)]++
	h.mu.Unlock()
}

func (h *httpStats) snapshot() map[string]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]int64, len(h.counts))
	for k, v := range h.counts {
		out[k] = v
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	emit := func(name, typ string, lines ...string) {
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	c := func(name string, v int64) string { return fmt.Sprintf("%s %d", name, v) }
	g := func(name string, v float64) string { return fmt.Sprintf("%s %g", name, v) }

	ps := s.cfg.Session.PlanStats()
	emit("wse_plan_cache_hits_total", "counter", c("wse_plan_cache_hits_total", ps.Hits))
	emit("wse_plan_cache_misses_total", "counter", c("wse_plan_cache_misses_total", ps.Misses))
	emit("wse_plan_cache_evictions_total", "counter", c("wse_plan_cache_evictions_total", ps.Evictions))
	emit("wse_plan_cache_store_hits_total", "counter", c("wse_plan_cache_store_hits_total", ps.StoreHits))
	emit("wse_plan_cache_store_errors_total", "counter", c("wse_plan_cache_store_errors_total", ps.StoreErrors))
	emit("wse_plan_cache_resident", "gauge", c("wse_plan_cache_resident", int64(ps.Size)))
	emit("wse_plan_tape_records_total", "counter", c("wse_plan_tape_records_total", ps.TapeRecords))
	emit("wse_plan_tape_replays_total", "counter", c("wse_plan_tape_replays_total", ps.TapeReplays))
	emit("wse_plan_tape_declined_total", "counter", c("wse_plan_tape_declined_total", ps.TapeDeclined))
	emit("wse_plan_tape_loaded_total", "counter", c("wse_plan_tape_loaded_total", ps.TapeLoaded))

	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		emit("wse_plan_store_loads_total", "counter", c("wse_plan_store_loads_total", st.Loads))
		emit("wse_plan_store_misses_total", "counter", c("wse_plan_store_misses_total", st.Misses))
		emit("wse_plan_store_load_errors_total", "counter", c("wse_plan_store_load_errors_total", st.LoadErrors))
		emit("wse_plan_store_saves_total", "counter", c("wse_plan_store_saves_total", st.Saves))
		emit("wse_plan_store_save_errors_total", "counter", c("wse_plan_store_save_errors_total", st.SaveErrors))
		emit("wse_plan_store_quarantined_total", "counter", c("wse_plan_store_quarantined_total", st.Quarantined))
		emit("wse_plan_store_plans", "gauge", c("wse_plan_store_plans", int64(st.Plans)))
		emit("wse_plan_store_load_seconds_total", "counter", g("wse_plan_store_load_seconds_total", st.LoadLatency.Seconds()))
		emit("wse_plan_store_save_seconds_total", "counter", g("wse_plan_store_save_seconds_total", st.SaveLatency.Seconds()))
	}

	// The miss path's two steps, one row each: the store's loads (with every
	// failed save) and the compiles.
	ms := ps.Miss
	for _, f := range []struct {
		field          string
		store, compile int64
	}{
		{"lookups", ms.Store.Lookups, ms.Compile.Lookups},
		{"hits", ms.Store.Hits, ms.Compile.Hits},
		{"misses", ms.Store.Misses, ms.Compile.Misses},
		{"errors", ms.Store.Errors, ms.Compile.Errors},
		{"save_errors", ms.SaveErrors, 0},
	} {
		name := "wse_resolve_" + f.field + "_total"
		emit(name, "counter", c(name+`{stage="store"}`, f.store), c(name+`{stage="compile"}`, f.compile))
	}
	emit("wse_resolve_latency_seconds_total", "counter",
		g(`wse_resolve_latency_seconds_total{stage="store"}`, ms.Store.Latency.Seconds()),
		g(`wse_resolve_latency_seconds_total{stage="compile"}`, ms.Compile.Latency.Seconds()))

	sched := s.cfg.Session.SchedStats()
	names := make([]string, 0, len(sched.Tenants))
	for name := range sched.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	tenantCounter := func(field string, pick func(t wse.TenantStats) int64) {
		lines := make([]string, 0, len(names))
		for _, name := range names {
			t := sched.Tenants[name]
			lines = append(lines, fmt.Sprintf("wse_tenant_%s_total{tenant=%q,class=%q} %d", field, name, t.Class, pick(t)))
		}
		emit("wse_tenant_"+field+"_total", "counter", lines...)
	}
	tenantCounter("submitted", func(t wse.TenantStats) int64 { return t.Submitted })
	tenantCounter("served", func(t wse.TenantStats) int64 { return t.Served })
	tenantCounter("rejected", func(t wse.TenantStats) int64 { return t.Rejected })
	tenantCounter("cancelled", func(t wse.TenantStats) int64 { return t.Cancelled })
	tenantCounter("failed", func(t wse.TenantStats) int64 { return t.Failed })
	waits := make([]string, 0, 2*len(names))
	for _, name := range names {
		t := sched.Tenants[name]
		waits = append(waits,
			fmt.Sprintf("wse_tenant_queue_wait_seconds{tenant=%q,quantile=\"0.5\"} %g", name, t.QueueWaitP50.Seconds()),
			fmt.Sprintf("wse_tenant_queue_wait_seconds{tenant=%q,quantile=\"0.99\"} %g", name, t.QueueWaitP99.Seconds()))
	}
	emit("wse_tenant_queue_wait_seconds", "gauge", waits...)

	emit("wse_panics_total", "counter", c("wse_panics_total", sched.Panics))
	emit("wse_http_panics_total", "counter", c("wse_http_panics_total", s.httpPanics.Load()))

	emit("wse_pool_workers", "gauge", c("wse_pool_workers", int64(sched.Pool.Workers)))
	emit("wse_pool_running", "gauge", c("wse_pool_running", int64(sched.Pool.Running)))
	emit("wse_pool_queue_depth", "gauge", c("wse_pool_queue_depth", int64(sched.Pool.Depth)))
	emit("wse_pool_queue_depth_max", "gauge", c("wse_pool_queue_depth_max", int64(sched.Pool.MaxDepth)))
	emit("wse_pool_saturated_seconds_total", "counter", g("wse_pool_saturated_seconds_total", sched.Pool.Saturated.Seconds()))

	emit("wse_jobs_resident", "gauge", c("wse_jobs_resident", int64(s.jobs.len())))

	httpCounts := s.http.snapshot()
	keys := make([]string, 0, len(httpCounts))
	for k := range httpCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	reqs := make([]string, 0, len(keys))
	for _, k := range keys {
		ep, code, _ := strings.Cut(k, "|")
		reqs = append(reqs, fmt.Sprintf("wse_http_requests_total{endpoint=%q,code=%q} %d", ep, code, httpCounts[k]))
	}
	emit("wse_http_requests_total", "counter", reqs...)

	writeHistogramVec(&b, "wse_http_request_duration_seconds", s.httpDur.Snapshot())
	writeHistogramVec(&b, "wse_sched_queue_wait_seconds", sched.QueueWaitHist)

	goroutines, heap, gcPause := s.rt.snapshot(time.Now())
	emit("wse_goroutines", "gauge", c("wse_goroutines", goroutines))
	emit("wse_heap_alloc_bytes", "gauge", c("wse_heap_alloc_bytes", heap))
	emit("wse_gc_pause_seconds_total", "counter", g("wse_gc_pause_seconds_total", gcPause))

	emit("wse_up", "gauge", c("wse_up", boolGauge(!s.draining.Load())))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// writeHistogramVec renders one histogram family in Prometheus text
// form: cumulative _bucket{...,le="..."} series per label set (keys are
// pre-rendered label bodies), then _sum and _count.
func writeHistogramVec(b *strings.Builder, name string, snaps map[string]obs.HistogramSnapshot) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	labels := make([]string, 0, len(snaps))
	for l := range snaps {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		snap := snaps[l]
		var cum int64
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(b, "%s_bucket{%s,le=\"%g\"} %d\n", name, l, bound, cum)
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, l, snap.Count)
		fmt.Fprintf(b, "%s_sum{%s} %g\n", name, l, snap.Sum)
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, l, snap.Count)
	}
}

// runtimeStatsCache caches runtime.ReadMemStats (a stop-the-world-ish
// call) for about a second, so an aggressive scraper cannot stall the
// daemon by hammering /metrics.
type runtimeStatsCache struct {
	mu         sync.Mutex
	at         time.Time
	goroutines int64
	heap       int64
	gcPause    float64
}

func (rc *runtimeStatsCache) snapshot(now time.Time) (goroutines, heapAlloc int64, gcPauseSeconds float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.at.IsZero() || now.Sub(rc.at) >= time.Second {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rc.at = now
		rc.goroutines = int64(runtime.NumGoroutine())
		rc.heap = int64(ms.HeapAlloc)
		rc.gcPause = float64(ms.PauseTotalNs) / 1e9
	}
	return rc.goroutines, rc.heap, rc.gcPause
}

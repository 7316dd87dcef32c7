package wse

// Benchmarks of distributed plan resolution: what the tracked shape
// costs to resolve from a warm fleet peer over the wire (HTTP fetch +
// codec decode + hash verification) versus recompiling it locally, and
// what a cold worker joining a warm fleet pays on its first request.
// The headline numbers are written to BENCH_fleet.json as a trajectory
// point.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/plan"
	"repro/internal/resolve"
)

// benchBlobServer serves the store's plans over the fleet blob route —
// the slice of a warm wsed worker a resolver's peer stage talks to.
func benchBlobServer(b *testing.B, store *PlanStore) *httptest.Server {
	b.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/plans/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, err := ParseKey(r.PathValue("key"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		blob, ok, err := store.LoadBlob(key)
		if err != nil || !ok {
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		w.Write(blob)
	})
	srv := httptest.NewServer(mux)
	b.Cleanup(srv.Close)
	return srv
}

// BenchmarkFleetResolve measures the tracked reduce1d p=512 B=16 shape
// through the fleet's resolution paths. The acceptance bar: a cold
// worker joining a fleet with a warm peer serves its first request via
// remote fetch — the chain's compile stage records zero lookups. The
// remote_vs_compile_speedup headline contextualises that: a remote fetch
// pays wire + hash verification + decode, so it beats compile only when
// compilation dominates decode (large shapes); for cheap shapes the win
// is the serving worker's compile CPU and fleet-wide compile-once
// convergence, not request latency.
func BenchmarkFleetResolve(b *testing.B) {
	dir := b.TempDir()
	store, err := OpenPlanStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	shape := Shape{Kind: KindReduce, Alg: Auto, P: planBenchP, B: planBenchB, Op: Sum}
	stage := NewSession(SessionConfig{})
	if st, err := stage.Warm(store, []Shape{shape}); err != nil || st.Compiled != 1 {
		b.Fatalf("staging warm: %+v, %v", st, err)
	}
	stage.Close()
	key := store.Keys()[0]
	peer := benchBlobServer(b, store)
	vectors := constVectors(planBenchP, planBenchB)

	point := map[string]any{
		"bench": "fleet-resolve",
		"shape": map[string]any{
			"kind": "reduce1d", "alg": "auto",
			"p": planBenchP, "b": planBenchB,
		},
	}
	benchHostMeta(point)

	var compileNs, remoteNs float64
	b.Run("compile-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Compile(planBenchReq()); err != nil {
				b.Fatal(err)
			}
		}
		compileNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("remote-resolve", func(b *testing.B) {
		st := resolve.Peer(peer.URL, client.Config{})
		for i := 0; i < b.N; i++ {
			if _, err := st.Resolve(context.Background(), key); err != nil {
				b.Fatal(err)
			}
		}
		remoteNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	// Cold join: a fresh worker whose only resolution paths are the warm
	// peer and the compiler. Session construction is off the clock; the
	// measured region is exactly the first request a client sees.
	var coldJoinNs float64
	var lastChain resolve.Resolver
	b.Run("cold-join-first-request", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			chain := resolve.Sequential(
				resolve.Optional(resolve.Peer(peer.URL, client.Config{})),
				resolve.Compiler(),
			)
			sess := NewSession(SessionConfig{Resolver: chain})
			b.StartTimer()
			if _, err := sess.Run(context.Background(), shape, vectors); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			lastChain = chain
			sess.Close()
			b.StartTimer()
		}
		coldJoinNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	if remoteNs > 0 && lastChain != nil {
		// The chain's own accounting proves the cold join never compiled.
		stages := map[string]resolve.Stats{}
		for _, st := range lastChain.Stats() {
			stages[st.Stage] = st
			if st.Stage == "compile" && st.Lookups != 0 {
				b.Fatalf("cold join compiled despite the warm peer: %+v", st)
			}
		}
		point["compile_ns_per_op"] = compileNs
		point["remote_resolve_ns_per_op"] = remoteNs
		point["cold_join_first_request_ns_per_op"] = coldJoinNs
		point["remote_vs_compile_speedup"] = compileNs / remoteNs
		point["cold_join_compile_lookups"] = stages["compile"].Lookups
		for _, st := range lastChain.Stats() {
			// Peer stage names carry the httptest URL; strip it so the
			// trajectory point's keys are stable across runs.
			name, _, _ := strings.Cut(st.Stage, " ")
			if st.Lookups > 0 {
				point["hit_ratio_"+name] = float64(st.Hits) / float64(st.Lookups)
			}
		}
		b.ReportMetric(compileNs/remoteNs, "remote-x")
		buf, err := json.MarshalIndent(point, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_fleet.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("BENCH_fleet.json not written: %v", err)
		}
	}
}

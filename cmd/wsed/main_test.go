package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	wse "repro"
	"repro/internal/serve"
)

// TestWorkerChainWritesEachPlanOnce drives the store + peer chain main
// builds: a plan fetched from a peer and a plan the worker had to compile
// each reach the shared store once, tape included, and /metrics reports the
// cache's store hits from the same ledger as the chain's store stage.
func TestWorkerChainWritesEachPlanOnce(t *testing.T) {
	ctx := context.Background()
	held := wse.Shape{Kind: wse.KindReduce, Alg: wse.Chain, P: 6, B: 4}
	novel := wse.Shape{Kind: wse.KindReduce, Alg: wse.Chain, P: 7, B: 4}
	run := func(s *wse.Session, sh wse.Shape) {
		t.Helper()
		if _, err := s.Run(ctx, sh, sh.Inputs(func(n int) []float32 { return []float32{1, 2, 3, 4}[:n] })); err != nil {
			t.Fatal(err)
		}
	}

	// The peer holds one plan, run once: its blob carries the tape.
	peerSess := wse.NewSession(wse.SessionConfig{})
	run(peerSess, held)
	peerSrv := serve.New(serve.Config{Session: peerSess})
	defer peerSrv.Drain()
	peer := httptest.NewServer(peerSrv.Handler())
	defer peer.Close()

	store, err := wse.OpenPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	worker := func() (*wse.Session, *serve.Server) {
		chain := buildChain(store, []string{peer.URL})
		sess := wse.NewSession(wse.SessionConfig{Store: store, Resolver: chain})
		srv := serve.New(serve.Config{Session: sess, Store: store, Resolver: chain})
		t.Cleanup(func() { srv.Drain() })
		return sess, srv
	}
	stored := func(sh wse.Shape) bool {
		t.Helper()
		key, err := wse.ParseKey(wse.KeyString(sh, wse.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		p, ok, err := store.Load(key)
		if err != nil || !ok {
			t.Fatalf("%v: stored ok=%v err=%v", key, ok, err)
		}
		tape, _ := p.Tape()
		return tape != nil
	}

	w1, _ := worker()
	run(w1, held)
	if st, saves := w1.PlanStats(), store.Stats().Saves; st.TapeLoaded != 1 || st.TapeRecords != 0 || saves != 1 || !stored(held) {
		t.Fatalf("peer-fetched plan: %+v, %d saves, stored with tape %v; want it loaded with its tape and written once", st, saves, stored(held))
	}
	run(w1, novel)
	if st, saves := w1.PlanStats(), store.Stats().Saves; st.TapeRecords != 1 || saves != 2 || !stored(novel) {
		t.Fatalf("compiled plan: %+v, %d saves, stored with tape %v; want it written once, after the recording", st, saves, stored(novel))
	}

	// A second worker over the same store: two store hits, nothing written,
	// and one ledger on /metrics.
	w2, srv := worker()
	run(w2, held)
	run(w2, novel)
	if saves := store.Stats().Saves; saves != 2 {
		t.Fatalf("plans loaded with their tapes were written again: %d saves", saves)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := func(re string) string {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + re + ` (\S+)$`).FindSubmatch(page)
		if m == nil {
			t.Fatalf("/metrics has no series %s", re)
		}
		return string(m[1])
	}
	cache, stage := series(`wse_plan_cache_store_hits_total`), series(`wse_resolve_hits_total\{stage="store"\}`)
	if cache != "2" || stage != "2" {
		t.Fatalf("wse_plan_cache_store_hits_total %s, stage=\"store\" hits %s; want 2 and 2", cache, stage)
	}
}

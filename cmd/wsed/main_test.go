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

// TestWorkerChainWritesEachPlanOnce drives two daemons assembled as main
// assembles them over one store directory: each plan the first compiles
// reaches the store once, tape included; the second loads both and writes
// nothing; and /metrics reports the cache's store hits from the same ledger
// as the session chain's store stage.
func TestWorkerChainWritesEachPlanOnce(t *testing.T) {
	ctx := context.Background()
	shapes := []wse.Shape{
		{Kind: wse.KindReduce, Alg: wse.Chain, P: 6, B: 4},
		{Kind: wse.KindReduce, Alg: wse.Chain, P: 7, B: 4},
	}
	run := func(s *wse.Session, sh wse.Shape) {
		t.Helper()
		if _, err := s.Run(ctx, sh, sh.Inputs(func(n int) []float32 { return []float32{1, 2, 3, 4}[:n] })); err != nil {
			t.Fatal(err)
		}
	}

	store, err := wse.OpenPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	worker := func() (*wse.Session, *serve.Server) {
		sess := wse.NewSession(wse.SessionConfig{Store: store})
		srv := serve.New(serve.Config{Session: sess, Store: store})
		t.Cleanup(func() { srv.Drain() })
		return sess, srv
	}
	taped := func() int {
		t.Helper()
		n := 0
		for _, key := range store.Keys() {
			p, ok, err := store.Load(key)
			if err != nil || !ok {
				t.Fatalf("%v: stored ok=%v err=%v", key, ok, err)
			}
			if tape, _ := p.Tape(); tape != nil {
				n++
			}
		}
		return n
	}

	w1, _ := worker()
	for i, sh := range shapes {
		run(w1, sh)
		want := int64(i + 1)
		if st, saves := w1.PlanStats(), store.Stats().Saves; st.TapeRecords != want || saves != want || taped() != i+1 {
			t.Fatalf("compiled plan %d: %+v, %d saves, %d stored with tape; want each written once, after its recording", i, st, saves, taped())
		}
	}

	// A second worker over the same store: two store hits, nothing written,
	// and one ledger on /metrics.
	w2, srv := worker()
	for _, sh := range shapes {
		run(w2, sh)
	}
	if st, saves := w2.PlanStats(), store.Stats().Saves; st.TapeLoaded != 2 || st.TapeRecords != 0 || saves != 2 {
		t.Fatalf("second worker: %+v, %d saves; want both plans loaded with their tapes and nothing written", st, saves)
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

package serve

// httptest-driven coverage of the daemon's handler layer: happy paths
// for the three verbs, the typed-error transport contract (400 on a bad
// shape, 429 + Retry-After under a saturated bounded tenant, 503 while
// draining), the async submit/poll lifecycle with job GC, tenant
// identity mapping, and wire-vs-in-process bit identity.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	wse "repro"
	"repro/client"
	"repro/internal/fabric"
	"repro/internal/plan"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Session == nil {
		cfg.Session = wse.NewSession(wse.SessionConfig{})
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.stopSweeper()
		cfg.Session.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// vectorsJSON renders p length-b all-ones vectors as a JSON array.
func vectorsJSON(p, b int) string {
	one := make([]string, b)
	for i := range one {
		one[i] = "1"
	}
	vec := "[" + strings.Join(one, ",") + "]"
	vecs := make([]string, p)
	for i := range vecs {
		vecs[i] = vec
	}
	return "[" + strings.Join(vecs, ",") + "]"
}

// onesInputs is vectorsJSON's payload as the in-process verbs take it.
func onesInputs(p, b int) [][]float32 {
	out := make([][]float32, p)
	for i := range out {
		out[i] = slices.Repeat([]float32{1}, b)
	}
	return out
}

func runBody(kind string, p, b int) string {
	return fmt.Sprintf(`{"shape":{"kind":%q,"p":%d,"b":%d,"op":"sum"},"inputs":%s}`,
		kind, p, b, vectorsJSON(p, b))
}

// TestRunBitIdentical: a /v1/run served over the wire must reproduce the
// in-process wse.Run bit for bit — float32 survives JSON's float64
// numbers exactly, so the wire layer owes zero numerical drift.
func TestRunBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const p, b = 8, 4
	resp, body := post(t, ts.URL+"/v1/run", runBody("reduce1d", p, b), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ReportWire
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	want, err := wse.Run(context.Background(), wse.Shape{
		Kind: wse.KindReduce, Alg: wse.Auto, P: p, B: b, Op: wse.Sum,
	}, onesInputs(p, b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Errorf("wire cycles %d, in-process %d", got.Cycles, want.Cycles)
	}
	if got.Predicted == nil || *got.Predicted != want.Predicted {
		t.Errorf("wire predicted %v, in-process %v", got.Predicted, want.Predicted)
	}
	if len(got.Root) != len(want.Root) {
		t.Fatalf("wire root length %d, in-process %d", len(got.Root), len(want.Root))
	}
	for i := range got.Root {
		if got.Root[i] != want.Root[i] {
			t.Errorf("root[%d]: wire %v, in-process %v", i, got.Root[i], want.Root[i])
		}
	}
	if got.Stats.Hops != want.Stats.Hops {
		t.Errorf("wire hops %d, in-process %d", got.Stats.Hops, want.Stats.Hops)
	}
}

// TestPredictBound: the model verbs answer with the exact in-process
// estimates.
func TestPredictBound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sh := `{"shape":{"kind":"reduce1d","p":64,"b":16,"op":"sum"}}`
	wantShape := wse.Shape{Kind: wse.KindReduce, Alg: wse.Auto, Alg2D: wse.Auto2D, P: 64, B: 16, Op: wse.Sum}

	resp, body := post(t, ts.URL+"/v1/predict", sh, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	var pr map[string]float64
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if want := wse.Predict(wantShape); pr["predicted_cycles"] != want {
		t.Errorf("predict %v, want %v", pr["predicted_cycles"], want)
	}

	resp, body = post(t, ts.URL+"/v1/bound", sh, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bound status %d: %s", resp.StatusCode, body)
	}
	var bd map[string]float64
	if err := json.Unmarshal(body, &bd); err != nil {
		t.Fatal(err)
	}
	if want := wse.Bound(wantShape); bd["bound_cycles"] != want {
		t.Errorf("bound %v, want %v", bd["bound_cycles"], want)
	}
}

// TestNonFinitePredictedStillAnswers: JSON cannot spell a non-finite
// estimate, so the wire carries null for one — a 200 with a body, decoded by
// the retrying client in one attempt as a nil Predicted or a NaN estimate,
// the measured half of the report intact. No shape the daemon accepts has
// such an estimate any more (every row × algorithm of the kind table must
// predict finite over the wire, the middle root under auto included — it was
// the +Inf this test was first written for), so the null path is driven from
// a hand-made report.
func TestNonFinitePredictedStillAnswers(t *testing.T) {
	made := &wse.Report{Cycles: 48, Predicted: math.Inf(1), Root: []float32{8, 8, 8, 8}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, reportWire(made))
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]*float64{"predicted_cycles": finiteOrNil(math.NaN())})
	})
	fake := httptest.NewServer(mux)
	defer fake.Close()

	resp, body := post(t, fake.URL+"/v1/run", "{}", nil)
	var got ReportWire
	if err := json.Unmarshal(body, &got); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("a report with a +Inf estimate answered %d %q: %v", resp.StatusCode, body, err)
	}
	if got.Predicted != nil || got.Cycles != made.Cycles || !slices.Equal(got.Root, made.Root) {
		t.Errorf("wire report %+v, want predicted null, cycles %d, root %v", got, made.Cycles, made.Root)
	}
	c := client.New(client.Config{BaseURL: fake.URL})
	sh := client.Shape{Kind: "allreduce-midroot", P: 8, B: 4, Op: "sum"}
	rep, err := c.Run(context.Background(), sh, onesInputs(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Predicted != nil || rep.Cycles != made.Cycles || !slices.Equal(rep.Root, made.Root) {
		t.Errorf("client report %+v, want predicted nil, cycles %d, root %v", rep, made.Cycles, made.Root)
	}
	if v, err := c.Predict(context.Background(), sh); err != nil || !math.IsNaN(v) {
		t.Errorf("client Predict = %v, %v; want NaN for a null estimate", v, err)
	}
	if m := c.Metrics(); m.Attempts != 2 || m.Retries != 0 {
		t.Errorf("client made %d attempts, %d retries for 2 calls", m.Attempts, m.Retries)
	}

	// The real daemon: every row of the kind table, under every algorithm
	// it accepts and under auto, answers a finite estimate — the in-process
	// one, bit for bit — and a run of it reports the same number.
	_, ts := newTestServer(t, Config{})
	c = client.New(client.Config{BaseURL: ts.URL})
	for i := range plan.Kinds {
		ki := &plan.Kinds[i]
		algs, algs2D := []wse.Algorithm{""}, []wse.Algorithm2D{""}
		if ki.Algs != nil {
			algs = append([]wse.Algorithm{wse.Auto}, ki.Algs...)
		}
		if ki.Algs2D != nil {
			algs2D = append([]wse.Algorithm2D{wse.Auto2D}, ki.Algs2D...)
		}
		for _, alg := range algs {
			for _, alg2D := range algs2D {
				sh := client.Shape{Kind: string(ki.Kind), Alg: string(alg), Alg2D: string(alg2D), P: 8, Width: 4, Height: 2, B: 8, Op: "sum"}
				name := fmt.Sprintf("%s/%s%s", sh.Kind, sh.Alg, sh.Alg2D)
				local, err := ShapeOf(sh)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := wse.Predict(local)
				if v, err := c.Predict(context.Background(), sh); err != nil || v != want || math.IsInf(v, 0) {
					t.Errorf("%s: Predict over the wire = %v, %v; in process %v (and finite)", name, v, err, want)
				}
				rep, err := c.Run(context.Background(), sh, local.Inputs(func(n int) []float32 { return slices.Repeat([]float32{1}, n) }))
				if err != nil {
					t.Errorf("%s: Run over the wire: %v", name, err)
				} else if rep.Predicted == nil || *rep.Predicted != want {
					t.Errorf("%s: Run over the wire predicted %v, want %v", name, rep.Predicted, want)
				}
			}
		}
	}
}

// TestUnencodableResponseIsTyped500: a value JSON cannot carry must
// surface as a JSON error under a 500, never a 200 header over nothing.
func TestUnencodableResponseIsTyped500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var e errorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("unencodable value answered %d %q, want a JSON error under 500", rec.Code, rec.Body)
	}
}

// TestBadShape400: malformed shapes and ragged inputs come back 400 with
// a JSON error body — never a 500, never a hang.
func TestBadShape400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"ragged inputs", `{"shape":{"kind":"reduce1d","p":4,"b":4,"op":"sum"},"inputs":[[1,1,1,1],[1,1,1,1],[1,1],[1,1,1,1]]}`},
		{"wrong vector count", `{"shape":{"kind":"reduce1d","p":4,"b":2,"op":"sum"},"inputs":[[1,1]]}`},
		{"unknown kind", `{"shape":{"kind":"transmogrify","p":4,"b":2},"inputs":[[1,1]]}`},
		{"unknown op", `{"shape":{"kind":"reduce1d","p":4,"b":2,"op":"xor"},"inputs":[[1,1]]}`},
		{"malformed json", `{"shape":`},
		{"scatter with empty chunks", `{"shape":{"kind":"scatter","p":4,"b":3},"inputs":[[1,2,3]]}`},
		{"gather with empty chunks", `{"shape":{"kind":"gather","p":4,"b":3},"inputs":[[1],[2],[3],[]]}`},
		{"reducescatter with empty chunks", runBody("reducescatter", 4, 3)},
		{"allgather with empty chunks", `{"shape":{"kind":"allgather","p":4,"b":3},"inputs":[[1],[2],[3],[]]}`},
		{"ring allreduce with empty chunks", fmt.Sprintf(`{"shape":{"kind":"allreduce1d","alg":"ring","p":4,"b":3,"op":"sum"},"inputs":%s}`, vectorsJSON(4, 3))},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/v1/run", tc.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, body)
		}
	}
}

// TestOverloaded429: a bounded tenant pushed past its queue depth gets
// 429 with a Retry-After hint, synchronously — admission control never
// queues the rejection. A backlog of Interactive in-process blockers
// pins the single worker, so the Batch-class tenant's queued request is
// never dispatched while they are pending. Async submits enqueue after
// compiling (admission is a snapshot, not a reservation — see
// sched.Admit), so the test waits for the scheduler to actually see the
// blocker backlog and then the queued first submit before asserting:
// without those barriers the asserts race the submit goroutines.
func TestOverloaded429(t *testing.T) {
	sess := wse.NewSession(wse.SessionConfig{Workers: 1})
	_, ts := newTestServer(t, Config{
		Session:    sess,
		Tenants:    []TenantSpec{{Name: "tight", Cfg: wse.TenantConfig{Weight: 1, MaxQueue: 1}}},
		RetryAfter: 2 * time.Second,
	})
	blocker := sess.WithTenant("blocker", wse.TenantConfig{Priority: wse.Interactive})
	blockShape := wse.Shape{Kind: wse.KindReduce, Alg: wse.Chain, P: 512, B: 16, Op: wse.Sum}
	blockInputs := make([][]float32, blockShape.P)
	for i := range blockInputs {
		blockInputs[i] = make([]float32, blockShape.B)
	}
	// The blockers' plan carries a fabric.Tracer, so it never runs from a
	// replay tape: every one of the 64 is a full engine run on the worker.
	onEngine := wse.WithOptions(wse.Options{Tracer: &fabric.Tracer{Cap: 1}})
	for i := 0; i < 64; i++ {
		blocker.Submit(context.Background(), blockShape, blockInputs, onEngine)
	}
	waitTenant := func(name string, queued func(wse.TenantStats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !queued(sess.SchedStats().Tenants[name]) {
			if time.Now().After(deadline) {
				t.Fatalf("tenant %q never reached the expected queue state: %+v",
					name, sess.SchedStats().Tenants[name])
			}
			time.Sleep(time.Millisecond)
		}
	}
	// All 64 blockers enqueued: the worker is pinned on one, 63 pending
	// Interactive outrank anything the Batch-class tenant queues.
	waitTenant("blocker", func(st wse.TenantStats) bool { return st.Submitted == 64 })

	body := runBody("reduce1d", 8, 4)
	hdr := map[string]string{"X-WSE-Tenant": "tight"}
	resp, rbody := post(t, ts.URL+"/v1/submit", body, hdr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, rbody)
	}
	// The accepted job enqueues from its own goroutine after compiling;
	// the second submit must observe it queued to hit the MaxQueue=1 bound.
	waitTenant("tight", func(st wse.TenantStats) bool { return st.Depth == 1 })
	resp, rbody = post(t, ts.URL+"/v1/submit", body, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429 (%s)", resp.StatusCode, rbody)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var e errorResponse
	if err := json.Unmarshal(rbody, &e); err != nil || e.Error == "" {
		t.Errorf("429 body %q not a JSON error", rbody)
	}
}

// TestSubmitPollLifecycle: submit returns an id whose status moves to
// done with the full result, and the completed job is GCed after its
// TTL (observed as 404 on a later poll).
func TestSubmitPollLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTTL: time.Millisecond})
	resp, body := post(t, ts.URL+"/v1/submit", runBody("reduce1d", 8, 4), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body %q", body)
	}

	var jr jobResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, b := get(t, ts.URL+sub.URL)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", r.StatusCode, b)
		}
		if err := json.Unmarshal(b, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.State != "pending" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job still pending after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if jr.State != "done" || jr.Result == nil {
		t.Fatalf("job state %q (error %q), want done with result", jr.State, jr.Error)
	}
	if want := float32(8); jr.Result.Root[0] != want {
		t.Errorf("root[0] = %v, want %v", jr.Result.Root[0], want)
	}

	// The background sweeper stamps the completed job and reaps it after
	// the TTL — no poll needed to trigger the GC, only to observe it.
	gcDeadline := time.Now().Add(10 * time.Second)
	for {
		if r, _ := get(t, ts.URL+sub.URL); r.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(gcDeadline) {
			t.Fatal("job not reaped by sweeper after 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitBadShape: validation resolves synchronously, so a bad shape
// fails the submit itself — no job id is ever minted for it.
func TestSubmitBadShape(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL+"/v1/submit", `{"shape":{"kind":"reduce1d","p":0,"b":4},"inputs":[]}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if n := s.jobs.len(); n != 0 {
		t.Errorf("%d jobs resident after rejected submit, want 0", n)
	}
}

// TestDrain503: once draining, API requests and the health check get 503
// while /metrics stays up; Drain then closes the session cleanly.
func TestDrain503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if r, _ := get(t, ts.URL+"/healthz"); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d before drain", r.StatusCode)
	}
	s.StartDrain()
	resp, body := post(t, ts.URL+"/v1/run", runBody("reduce1d", 4, 2), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run while draining: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if r, _ := get(t, ts.URL+"/healthz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", r.StatusCode)
	}
	if r, _ := get(t, ts.URL+"/metrics"); r.StatusCode != http.StatusOK {
		t.Errorf("metrics while draining: status %d, want 200", r.StatusCode)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestTenantMapping: identity headers land in the scheduler's accounting
// — pre-registered names keep their class, unknown names are admitted
// under the default config, bearer tokens work as names.
func TestTenantMapping(t *testing.T) {
	sess := wse.NewSession(wse.SessionConfig{})
	_, ts := newTestServer(t, Config{
		Session:       sess,
		Tenants:       []TenantSpec{{Name: "vip", Cfg: wse.TenantConfig{Priority: wse.Interactive, Weight: 4}}},
		DefaultTenant: wse.TenantConfig{Priority: wse.Background, Weight: 1},
	})
	body := runBody("reduce1d", 4, 2)
	for _, hdr := range []map[string]string{
		{"X-WSE-Tenant": "vip"},
		{"X-WSE-Tenant": "walkin"},
		{"Authorization": "Bearer bearer-bob"},
	} {
		if resp, b := post(t, ts.URL+"/v1/run", body, hdr); resp.StatusCode != http.StatusOK {
			t.Fatalf("run under %v: status %d: %s", hdr, resp.StatusCode, b)
		}
	}
	st := sess.SchedStats()
	if got := st.Tenants["vip"]; got.Class != "interactive" || got.Served != 1 {
		t.Errorf("vip: class %q served %d, want interactive/1", got.Class, got.Served)
	}
	if got := st.Tenants["walkin"]; got.Class != "background" || got.Served != 1 {
		t.Errorf("walkin: class %q served %d, want background/1 (default config)", got.Class, got.Served)
	}
	if got := st.Tenants["bearer-bob"]; got.Served != 1 {
		t.Errorf("bearer-bob: served %d, want 1", got.Served)
	}
}

// TestMetrics: the exposition carries the cache, scheduler, pool, job
// and HTTP series, with tenant labels.
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, b := post(t, ts.URL+"/v1/run", runBody("reduce1d", 4, 2), map[string]string{"X-WSE-Tenant": "m"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, b)
	}
	r, body := get(t, ts.URL+"/metrics")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q, want Prometheus text 0.0.4", ct)
	}
	text := string(body)
	for _, line := range []string{
		"wse_plan_cache_misses_total 1",
		`wse_tenant_served_total{tenant="m",class="batch"} 1`,
		"wse_pool_workers",
		"wse_jobs_resident 0",
		`wse_http_requests_total{endpoint="run",code="200"} 1`,
		"wse_up 1",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics output missing %q", line)
		}
	}
}

func TestWarmEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"shapes":[{"kind":"reduce1d","p":4,"b":4,"op":"sum"},{"kind":"allgather","p":8,"b":16},{"kind":"bogus","p":4,"b":4}]}`
	resp, out := post(t, ts.URL+"/v1/warm", body, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("warm: %d %s", resp.StatusCode, out)
	}
	var wr warmResponse
	if err := json.Unmarshal(out, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Warmed != 2 || wr.Resident != 0 || wr.Failed != 1 || len(wr.Errors) != 1 {
		t.Fatalf("first warm = %+v, want 2 warmed, 1 failed", wr)
	}
	// Idempotent: the same list again is all resident.
	_, out = post(t, ts.URL+"/v1/warm", body, nil)
	if err := json.Unmarshal(out, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Warmed != 0 || wr.Resident != 2 || wr.Failed != 1 {
		t.Fatalf("second warm = %+v, want 2 resident", wr)
	}
}

// TestResolverMetrics: the miss ledger's store and compile rows surface in
// /metrics after traffic — of a store-backed session, and of a bare one,
// whose store row stays zero.
func TestResolverMetrics(t *testing.T) {
	store, err := wse.OpenPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sess := wse.NewSession(wse.SessionConfig{Store: store})
	_, stored := newTestServer(t, Config{Session: sess, Store: store})
	_, bare := newTestServer(t, Config{})
	for url, want := range map[string][]string{
		stored.URL: {
			`wse_resolve_lookups_total{stage="store"} 1`,
			`wse_resolve_misses_total{stage="store"} 1`,
			`wse_resolve_save_errors_total{stage="store"} 0`,
			`wse_resolve_lookups_total{stage="compile"} 1`,
			`wse_resolve_hits_total{stage="compile"} 1`,
			`wse_resolve_latency_seconds_total{stage="compile"}`,
		},
		bare.URL: {
			`wse_resolve_lookups_total{stage="store"} 0`,
			`wse_resolve_lookups_total{stage="compile"} 1`,
			`wse_resolve_hits_total{stage="compile"} 1`,
		},
	} {
		if resp, _ := post(t, url+"/v1/run", runBody("reduce1d", 4, 4), nil); resp.StatusCode != 200 {
			t.Fatalf("run: %d", resp.StatusCode)
		}
		_, body := get(t, url+"/metrics")
		for _, line := range want {
			if !strings.Contains(string(body), line) {
				t.Errorf("metrics missing %q", line)
			}
		}
		if strings.Contains(string(body), `stage="sequential"`) {
			t.Error("metrics still carry a sequential row")
		}
	}
}

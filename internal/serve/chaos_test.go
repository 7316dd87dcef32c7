package serve

// The -race chaos soak (satellite of PR 7): a thousand mixed requests
// against the full httptest stack while 5% of store loads, saves, plan
// compiles and fabric execs fail at random. The invariants under fire:
// every response is typed (an expected status, a JSON error body on
// failures), scheduler accounting balances to the wavelet, and the
// stack tears down without leaking a single goroutine.
//
// Run it alone with: go test -run Chaos -race ./internal/serve/

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	wse "repro"

	"repro/internal/faults"
)

// waitGoroutines polls until the live goroutine count drops back to at
// most base (plus slack for runtime background goroutines), the
// goleak-style final check.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, started with %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	defer faults.Reset()
	baseGoroutines := runtime.NumGoroutine()

	storeDir := t.TempDir()
	store, err := wse.OpenPlanStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	session := wse.NewSession(wse.SessionConfig{Workers: 4, Store: store})
	srv := New(Config{Session: session, Store: store, JobTTL: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())

	// 5% random faults across the three inner seams, deterministic seed.
	faults.SetSeed(7)
	faults.Set("planstore.load", faults.Point{P: 0.05})
	faults.Set("planstore.save", faults.Point{P: 0.05})
	faults.Set("plan.compile", faults.Point{P: 0.05})
	faults.Set("fabric.exec", faults.Point{P: 0.05})

	client := &http.Client{Timeout: 30 * time.Second}
	do := func(method, url, body string, hdr map[string]string) (*http.Response, []byte, error) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, nil, err
		}
		return resp, data, nil
	}

	const total = 1000
	var ok200, failed5xx, shed504, rejected429, accepted202 int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, 32)
	for i := 0; i < total; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			tenant := fmt.Sprintf("t%d", i%5)
			hdr := map[string]string{"X-WSE-Tenant": tenant}
			var resp *http.Response
			var body []byte
			var err error
			switch i % 10 {
			case 7: // async submit with idempotency key
				hdr[idempotencyHeader] = fmt.Sprintf("chaos-%d", i)
				resp, body, err = do("POST", ts.URL+"/v1/submit",
					runBody("reduce1d", 4+i%3, 4), hdr)
			case 8: // predict
				resp, body, err = do("POST", ts.URL+"/v1/predict",
					`{"shape":{"kind":"reduce1d","p":8,"b":4,"op":"sum"}}`, hdr)
			case 9: // tight deadline
				hdr[deadlineHeader] = "1"
				resp, body, err = do("POST", ts.URL+"/v1/run",
					runBody("allreduce1d", 4+i%3, 4), hdr)
			default: // sync run across a few shapes
				kind := []string{"reduce1d", "allreduce1d", "broadcast1d"}[i%3]
				p := 4 + i%4
				reqBody := runBody(kind, p, 4)
				if kind == "broadcast1d" { // broadcast takes the root vector only
					reqBody = fmt.Sprintf(`{"shape":{"kind":"broadcast1d","p":%d,"b":4},"inputs":%s}`,
						p, vectorsJSON(1, 4))
				}
				resp, body, err = do("POST", ts.URL+"/v1/run", reqBody, hdr)
			}
			if err != nil {
				t.Errorf("request %d transport error: %v", i, err)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				atomic.AddInt64(&ok200, 1)
			case http.StatusAccepted:
				atomic.AddInt64(&accepted202, 1)
			case http.StatusInternalServerError:
				atomic.AddInt64(&failed5xx, 1)
			case http.StatusGatewayTimeout:
				atomic.AddInt64(&shed504, 1)
			case http.StatusTooManyRequests:
				atomic.AddInt64(&rejected429, 1)
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("request %d: 429 without Retry-After", i)
				}
			default:
				t.Errorf("request %d: unexpected status %d: %s", i, resp.StatusCode, body)
				return
			}
			// Every non-2xx response must be a typed JSON error.
			if resp.StatusCode >= 400 {
				var e errorResponse
				if jerr := json.Unmarshal(body, &e); jerr != nil || e.Error == "" {
					t.Errorf("request %d: status %d body %q not a JSON error", i, resp.StatusCode, body)
				}
			}
		}(i)
	}
	wg.Wait()

	if ok200 == 0 {
		t.Fatal("no request succeeded under 5% chaos — the stack is not degrading, it is down")
	}
	if failed5xx == 0 {
		t.Fatal("no request failed under 5% chaos — the failpoints never fired")
	}
	t.Logf("chaos soak: 200=%d 202=%d 500=%d 504=%d 429=%d (store errors=%d)",
		ok200, accepted202, failed5xx, shed504, rejected429, session.PlanStats().StoreErrors)

	// Accounting balances per tenant, under the ledger invariant
	// submitted = served + rejected + cancelled (failures ran: ⊂ served).
	faults.Reset() // stop injecting before the drain path runs
	st := session.SchedStats()
	for name, tn := range st.Tenants {
		if tn.Submitted != tn.Served+tn.Rejected+tn.Cancelled {
			t.Errorf("tenant %q accounting leak: %+v", name, tn)
		}
	}

	// Async jobs all resolve; then the full stack tears down without
	// leaking a goroutine.
	deadline := time.Now().Add(30 * time.Second)
	for srv.jobs.len() > 0 {
		srv.jobs.sweep()
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs never reclaimed", srv.jobs.len())
		}
		time.Sleep(20 * time.Millisecond)
	}
	ts.Close()
	client.CloseIdleConnections()
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}
	waitGoroutines(t, baseGoroutines)
}

// TestChaosStoreDegradesToCompile is the store-failure chaos posture: a
// daemon over a plan store whose loads fail a third of the time. Because
// the miss absorbs a store failure and compiles, every single request must
// still answer 200 — store chaos is invisible to clients, visible only in
// the miss ledger's error counters.
func TestChaosStoreDegradesToCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	defer faults.Reset()

	// The store holds every shape the soak will request, so un-faulted
	// loads genuinely hit.
	store, err := wse.OpenPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var shapes []wse.Shape
	for p := 2; p <= 20; p += 2 {
		shapes = append(shapes, wse.Shape{Kind: wse.KindReduce, Alg: wse.Auto, P: p, B: 4, Op: wse.Sum})
	}
	if st, err := wse.NewSession(wse.SessionConfig{}).Warm(store, shapes); err != nil || st.Compiled != len(shapes) {
		t.Fatalf("filling the store: %+v, %v", st, err)
	}

	// The daemon under test: a one-plan cache, so most requests miss and
	// go to the store.
	sess := wse.NewSession(wse.SessionConfig{Store: store, PlanCacheCapacity: 1})
	srv := New(Config{Session: sess, Store: store})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.stopSweeper()
		sess.Close()
	}()

	faults.SetSeed(11)
	faults.Set("planstore.load", faults.Point{P: 0.33})

	var non200 int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			p := 2 + 2*(i%10)
			resp, body := post(t, ts.URL+"/v1/run", runBody("reduce1d", p, 4), nil)
			if resp.StatusCode != http.StatusOK {
				atomic.AddInt64(&non200, 1)
				t.Errorf("request %d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	faults.Reset()

	if non200 != 0 {
		t.Fatalf("%d requests surfaced store chaos to the client", non200)
	}
	m := sess.PlanStats().Miss
	storeErrors, storeHits, compileHits := m.Store.Errors, m.Store.Hits, m.Compile.Hits
	if m.Store.Hits+m.Store.Misses+m.Store.Errors != m.Store.Lookups || m.Compile.Hits+m.Compile.Errors != m.Compile.Lookups {
		t.Errorf("miss ledger leaks under chaos: %+v", m)
	}
	if storeErrors == 0 {
		t.Error("the planstore.load failpoint never fired — the soak proved nothing")
	}
	if compileHits == 0 {
		t.Error("no lookup degraded to compile — either chaos never hit or it 5xx'd")
	}
	t.Logf("store chaos: store hits=%d errors=%d, compiles=%d (all 200)", storeHits, storeErrors, compileHits)
}

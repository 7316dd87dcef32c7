package main

// wsecollect chaos: the failure-drill driver. It stands up a daemon (in
// process by default, or an external one via -url that was launched with
// WSE_FAILPOINTS armed), hammers it through the retrying client package
// with faults firing on the hot seams, and asserts the failure-model
// invariants the README promises:
//
//   - the daemon survives: /healthz still answers 200 after the storm;
//   - every failure is typed: the client saw only taxonomy statuses
//     (429/500/503/504 and 4xx), never a torn response;
//   - accounting balances (in-process mode): per tenant,
//     submitted = served + rejected + cancelled;
//   - retries recover: calls that failed transiently and were retried
//     to success are counted, with their recovery-latency p99.
//
// The trajectory point lands in BENCH_chaos.json.
//
//	wsecollect chaos -requests 500 -p 16 -bytes 64
//	wsecollect chaos -url http://127.0.0.1:8080 -requests 500
//
// (external mode: launch the daemon first, e.g.
//	WSE_FAILPOINTS="fabric.exec=error:p=0.05" wsed -addr :8080)

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	wse "repro"
	"repro/client"
	"repro/internal/faults"
	"repro/internal/serve"
)

// defaultChaosFaults is the in-process failpoint schedule when the
// caller doesn't bring their own: 5% random failure on every inner seam.
const defaultChaosFaults = "planstore.load=error:p=0.05;planstore.save=error:p=0.05;" +
	"plan.compile=error:p=0.05;fabric.exec=error:p=0.05"

func chaosCmd(c *config) error {
	sh, err := c.shape()
	if err != nil {
		return err
	}
	wsh := serve.WireShape(sh)
	inputs := inputsFor(sh)

	baseURL := c.url
	var session *wse.Session
	external := c.set["url"]
	if !external {
		// Self-hosted daemon on a loopback socket, failpoints armed
		// directly (same process). -failpoints overrides the default
		// schedule; WSE_FAILPOINTS from the environment also applies.
		spec := c.failpoints
		if spec == "" {
			spec = defaultChaosFaults
		}
		faults.SetSeed(int64(c.seed))
		if err := faults.Enable(spec); err != nil {
			return fmt.Errorf("bad -failpoints: %w", err)
		}
		defer faults.Reset()
		session = wse.NewSession(wse.SessionConfig{Workers: c.workers, Options: c.options()})
		srv := serve.New(serve.Config{Session: session, RequestTimeout: 30 * time.Second})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer func() {
			hs.Close()
			srv.Drain()
		}()
		baseURL = "http://" + ln.Addr().String()
		fmt.Printf("chaos: in-process daemon at %s, failpoints %s\n", baseURL, spec)
	}

	cl := client.New(client.Config{
		BaseURL:     baseURL,
		MaxAttempts: 5,
		BaseBackoff: 20 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
		// The drill wants to see recovery, not fast-fails: open late.
		BreakerThreshold: 50,
	})

	total := c.requests
	if total < 1 {
		total = 1
	}
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	var served, failed, shed, badReq, submitted int64
	var recovered []time.Duration // latency of calls that retried to success
	var recMu sync.Mutex
	var seq atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				if i >= int64(total) {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				before := cl.Metrics().Retries
				t0 := time.Now()
				var err error
				if i%10 == 7 { // async slice: keyed submit + wait
					var id string
					id, err = cl.Submit(ctx, wsh, inputs, fmt.Sprintf("chaos-%d", i))
					if err == nil {
						atomic.AddInt64(&submitted, 1)
						_, err = cl.Wait(ctx, id, 20*time.Millisecond)
					}
				} else {
					_, err = cl.Run(ctx, wsh, inputs)
				}
				elapsed := time.Since(t0)
				cancel()
				switch {
				case err == nil:
					atomic.AddInt64(&served, 1)
					if cl.Metrics().Retries > before {
						recMu.Lock()
						recovered = append(recovered, elapsed)
						recMu.Unlock()
					}
				case isShed(err):
					atomic.AddInt64(&shed, 1)
				case isCallerError(err):
					atomic.AddInt64(&badReq, 1)
				default:
					atomic.AddInt64(&failed, 1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Invariant: the daemon survived the storm.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	healthy := cl.Healthy(hctx)
	hcancel()
	if !healthy {
		return fmt.Errorf("chaos: daemon unhealthy after the drill — it did not survive")
	}
	if served == 0 {
		return fmt.Errorf("chaos: no request ever succeeded — the stack is down, not degrading")
	}
	if badReq > 0 {
		return fmt.Errorf("chaos: %d caller-error (4xx) responses to well-formed requests", badReq)
	}

	// Invariant (in-process mode): the ledger balances per tenant.
	if session != nil {
		faults.Reset() // don't inject into the stats path below
		for name, tn := range session.SchedStats().Tenants {
			if tn.Submitted != tn.Served+tn.Rejected+tn.Cancelled {
				return fmt.Errorf("chaos: tenant %q accounting leak: %+v", name, tn)
			}
		}
	}

	m := cl.Metrics()
	var recP99 time.Duration
	if len(recovered) > 0 {
		sort.Slice(recovered, func(i, j int) bool { return recovered[i] < recovered[j] })
		recP99 = recovered[int(0.99*float64(len(recovered)-1))]
	}

	point := map[string]any{
		"bench":           "chaos",
		"url":             baseURL,
		"requests":        total,
		"workers":         workers,
		"elapsed_ns":      elapsed.Nanoseconds(),
		"served":          served,
		"failed":          failed,
		"shed":            shed,
		"submitted_async": submitted,
		"attempts":        m.Attempts,
		"retried":         m.Retries,
		"breaker_opens":   m.BreakerOpens,
		"breaker_rejects": m.FastFails,
		"recovered_calls": len(recovered),
		"recovery_p99_ns": recP99.Nanoseconds(),
		"daemon_survived": healthy,
		"failpoints":      chaosSpec(c, external),
		"host_cores":      runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
	}
	if runtime.NumCPU() <= 2 {
		point["host_note"] = "few-core host: daemon, client and fabric simulations share cores; recovery latency includes their mutual displacement"
	}
	buf, err := json.MarshalIndent(point, "", "  ")
	if err != nil {
		return err
	}
	out := c.out
	if !c.set["out"] {
		out = "BENCH_chaos.json"
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("chaos: %d requests in %v: served=%d failed=%d shed=%d | %d retries recovered %d calls (recovery p99 %v)\n",
		total, elapsed.Round(time.Millisecond), served, failed, shed,
		m.Retries, len(recovered), recP99.Round(time.Microsecond))
	fmt.Printf("wrote %s\n", out)
	return nil
}

// chaosSpec reports which failpoint schedule the drill ran under, for
// the trajectory point.
func chaosSpec(c *config, external bool) string {
	if external {
		return "external daemon (WSE_FAILPOINTS at its launch)"
	}
	if c.failpoints != "" {
		return c.failpoints
	}
	return defaultChaosFaults
}

// isShed reports a deadline/backpressure outcome: the request was shed
// (504) or still overloaded after every retry (429) — degraded service,
// not failure.
func isShed(err error) bool {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusGatewayTimeout || ae.Status == http.StatusTooManyRequests
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// isCallerError reports a 4xx other than 429 — under chaos these are
// driver bugs, and the drill fails loudly on them.
func isCallerError(err error) bool {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status >= 400 && ae.Status < 500 && ae.Status != http.StatusTooManyRequests
	}
	return false
}

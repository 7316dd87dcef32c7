package main

// wsecollect load: the wire-side load generator for a running wsed
// daemon. It hammers POST /v1/run over the network with a configurable
// worker count and tenant mix, measures whole-request latency at the
// client, and writes BENCH_serve.json — the serving tier's trajectory
// point: requests per second, p50/p99 wire latency, per-status counts,
// and (when BENCH_api.json is readable) the in-process single-run number
// the wire latency is paying HTTP + JSON on top of.
//
//	wsecollect load -url http://127.0.0.1:8080 -requests 256 -workers 8 \
//	    -p 64 -bytes 256 -tenants "fg:interactive:3,bulk:batch:1"
//
// The -tenants weights set the request mix (a weight-3 tenant gets 3× the
// requests); classes and queue bounds are the daemon's to enforce.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// tenantMix expands the -tenants weights into a request-assignment ring:
// request i goes to ring[i%len(ring)].
func tenantMix(specs []serve.TenantSpec) []string {
	var ring []string
	for _, ts := range specs {
		for i := 0; i < ts.Cfg.Weight; i++ {
			ring = append(ring, ts.Name)
		}
	}
	return ring
}

func loadCmd(c *config) error {
	sh, err := c.shape()
	if err != nil {
		return err
	}
	specs, err := c.tenantSpecs()
	if err != nil {
		return err
	}
	ring := tenantMix(specs)
	body, err := json.Marshal(map[string]any{
		"shape":  serve.WireShape(sh),
		"inputs": inputsFor(sh),
	})
	if err != nil {
		return err
	}
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := c.requests
	if total < 1 {
		total = 1
	}
	if workers > total {
		workers = total
	}
	client := &http.Client{Timeout: 60 * time.Second}
	runURL := strings.TrimRight(c.url, "/") + "/v1/run"

	// One warm-up request compiles the plan server-side, so the measured
	// window holds replays — the serving steady state — not the compile.
	if status, err := postRun(client, runURL, "", body); err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	} else if status != http.StatusOK {
		return fmt.Errorf("warm-up request: daemon answered %d", status)
	}

	var seq atomic.Int64
	latencies := make([][]time.Duration, workers)
	statuses := make([]map[int]int64, workers)
	errs := make([]int64, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			statuses[w] = make(map[int]int64)
			for {
				i := seq.Add(1) - 1
				if i >= int64(total) {
					return
				}
				tenant := ""
				if len(ring) > 0 {
					tenant = ring[i%int64(len(ring))]
				}
				t0 := time.Now()
				status, err := postRun(client, runURL, tenant, body)
				if err != nil {
					errs[w]++
					continue
				}
				latencies[w] = append(latencies[w], time.Since(t0))
				statuses[w][status]++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	byStatus := make(map[int]int64)
	var transportErrs int64
	for w := 0; w < workers; w++ {
		all = append(all, latencies[w]...)
		for code, n := range statuses[w] {
			byStatus[code] += n
		}
		transportErrs += errs[w]
	}
	if len(all) == 0 {
		return fmt.Errorf("no request completed (%d transport errors)", transportErrs)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }
	rps := float64(len(all)) / elapsed.Seconds()

	point := map[string]any{
		"bench":            "serve-wire",
		"url":              runURL,
		"requests":         total,
		"workers":          workers,
		"tenant_mix":       c.tenants,
		"elapsed_ns":       elapsed.Nanoseconds(),
		"rps":              rps,
		"wire_p50_ns":      pct(0.50).Nanoseconds(),
		"wire_p99_ns":      pct(0.99).Nanoseconds(),
		"transport_errors": transportErrs,
		"host_cores":       runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
	}
	if runtime.NumCPU() <= 2 {
		point["host_note"] = "few-core host: the daemon, the load generator and the fabric simulations share cores, so wire latency includes their mutual displacement; re-measure client and server on separate boxes"
	}
	for code, n := range byStatus {
		point[fmt.Sprintf("status_%d", code)] = n
	}
	// The comparison column: what the same single run costs in-process.
	// Wire latency minus this is the HTTP + JSON + scheduling toll.
	if c.compare != "" {
		if buf, err := os.ReadFile(c.compare); err == nil {
			var api map[string]any
			if json.Unmarshal(buf, &api) == nil {
				if v, ok := api["single_map_ns_per_run"].(float64); ok {
					point["inprocess_single_map_ns_per_run"] = v
					point["wire_overhead_p50_ns"] = float64(pct(0.50).Nanoseconds()) - v
				}
			}
		}
	}

	buf, err := json.MarshalIndent(point, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(c.out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%d requests to %s in %v: %.0f req/s, wire p50 %v p99 %v (%d workers, mix %s)\n",
		len(all), runURL, elapsed.Round(time.Millisecond), rps,
		pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond), workers, c.tenants)
	codes := make([]int, 0, len(byStatus))
	for code := range byStatus {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Printf("  status %d  %6d\n", code, byStatus[code])
	}
	fmt.Printf("wrote %s\n", c.out)
	return nil
}

// postRun sends one /v1/run request under the given tenant identity and
// returns the HTTP status. The body is read fully so the connection is
// reused — wire latency should measure the protocol, not artificial
// reconnects.
func postRun(client *http.Client, url, tenant string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-WSE-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

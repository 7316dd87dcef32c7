package wse

// Benchmark of the multi-tenant scheduler: two tenants with a 3:1 weight
// ratio saturate a two-worker session with small collectives; the served
// split must converge to the weight ratio within 20%, and the headline
// numbers (split, per-tenant queue-wait/exec quantiles, pool saturation)
// are written to BENCH_sched.json as a trajectory point. CI runs one
// pass as the fairness smoke: a single -benchtime 1x iteration both
// exercises the scheduler under saturation and asserts the split.

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const (
	fairnessWeightA = 3
	fairnessWeightB = 1
	// fairnessBacklog requests are queued per tenant before the window
	// opens; the split is judged over the requests that completed
	// fairnessSkip+1-th to fairnessSkip+fairnessWindow-th, where both
	// backlogs are provably still non-empty (even all-A dispatch cannot
	// exhaust A's backlog before the window closes).
	fairnessBacklog = 800
	fairnessSkip    = 120
	fairnessWindow  = 240
)

func BenchmarkFairness(b *testing.B) {
	var point map[string]any
	for i := 0; i < b.N; i++ {
		point = fairnessTrial(b)
	}
	b.ReportMetric(point["served_ratio"].(float64), "A:B-ratio")
	buf, err := json.MarshalIndent(point, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sched.json", append(buf, '\n'), 0o644); err != nil {
		b.Logf("BENCH_sched.json not written: %v", err)
	}
}

// fairnessTrial runs one saturated 2-tenant serving window and returns
// the trajectory point, b.Fatal-ing when the split leaves the ±20% band.
func fairnessTrial(b *testing.B) map[string]any {
	sess := NewSession(SessionConfig{Workers: 2})
	defer sess.Close()
	a := sess.WithTenant("A", TenantConfig{Weight: fairnessWeightA})
	bb := sess.WithTenant("B", TenantConfig{Weight: fairnessWeightB})

	// Deep pre-loaded backlogs (one blocked submitter goroutine per
	// request — callers of a saturated pool) make the served split the
	// scheduler's decision alone. A closed feeder loop would not work:
	// with each feeder re-submitting only after its own completion,
	// throughput is capped by feeder counts, not weights. The shape is
	// small: the point is dispatch behaviour, not simulation.
	ctx := context.Background()
	small := Shape{Kind: KindReduce, Alg: Chain, P: 64, B: 16, Op: Sum}
	vectors := constVectors(small.P, small.B)
	if _, err := sess.Run(ctx, small, vectors); err != nil { // compile outside the window
		b.Fatal(err)
	}
	var wg sync.WaitGroup

	// Occupy every worker with a long 2D collective under a separate
	// warm-up tenant while the backlog accumulates. Without this the
	// bench never saturates: with instant-start small requests, each
	// arrival is dispatched before the next arrives (queue depth ≤ 1)
	// and the split just echoes arrival order instead of the weights.
	warm := sess.WithTenant("warmup", TenantConfig{})
	big := constVectors(48*48, 64)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := warm.Run(ctx, bigReduce2D, big); err != nil {
				b.Errorf("warmup blocker: %v", err)
			}
		}()
	}
	for deadline := time.Now().Add(time.Minute); sess.SchedStats().Pool.Running < 2; {
		if time.Now().After(deadline) {
			b.Fatal("warm-up blockers never occupied the pool")
		}
		time.Sleep(time.Millisecond)
	}

	// The split is judged over the [skip, skip+window) slice of the
	// completion order: past the ramp-up (queues deep on both sides) and
	// closed before either backlog can run dry. Every request takes its
	// place in that order as it returns, so the window holds exactly
	// fairnessWindow requests however fast the pool drains — a poller
	// sampling SchedStats can find both edges of its window already past
	// (replays of this shape take microseconds) and judge 0:0.
	var completed atomic.Int64
	var inWindow [2]atomic.Int64 // per tenant: A, B
	for i := 0; i < fairnessBacklog; i++ {
		for k, t := range []*Tenant{a, bb} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := t.Run(ctx, small, vectors); err != nil {
					b.Errorf("submit %s: %v", t.Name(), err)
				}
				if n := completed.Add(1); n > fairnessSkip && n <= fairnessSkip+fairnessWindow {
					inWindow[k].Add(1)
				}
			}()
		}
	}
	wg.Wait()
	sess.Close()

	servedA, servedB := inWindow[0].Load(), inWindow[1].Load()
	if servedA+servedB != fairnessWindow || servedB == 0 {
		b.Fatalf("the judged window holds A:B = %d:%d of %d completions, want %d with both tenants in it",
			servedA, servedB, completed.Load(), fairnessWindow)
	}
	ratio := float64(servedA) / float64(servedB)
	want := float64(fairnessWeightA) / float64(fairnessWeightB)
	if !(ratio >= want*0.8 && ratio <= want*1.2) { // written so that a NaN fails
		b.Fatalf("served split A:B = %d:%d = %.2f, want %.1f within 20%%", servedA, servedB, ratio, want)
	}

	final := sess.SchedStats()
	for name, ts := range final.Tenants {
		if ts.Submitted != ts.Served+ts.Rejected+ts.Cancelled {
			b.Fatalf("tenant %s accounting unbalanced: %+v", name, ts)
		}
	}
	point := map[string]any{
		"bench":        "sched-fairness",
		"shape":        map[string]any{"kind": "reduce1d", "alg": "chain", "p": 64, "b": 16},
		"workers":      2,
		"weight_a":     fairnessWeightA,
		"weight_b":     fairnessWeightB,
		"served_a":     servedA,
		"served_b":     servedB,
		"served_ratio": ratio,
		"want_ratio":   want,
	}
	benchHostMeta(point)
	for name, ts := range final.Tenants {
		if name != "A" && name != "B" {
			continue
		}
		point["tenant_"+name] = map[string]any{
			"served": ts.Served, "rejected": ts.Rejected, "cancelled": ts.Cancelled,
			"queue_wait_p50_us": float64(ts.QueueWaitP50.Nanoseconds()) / 1e3,
			"queue_wait_p99_us": float64(ts.QueueWaitP99.Nanoseconds()) / 1e3,
			"exec_p50_us":       float64(ts.ExecP50.Nanoseconds()) / 1e3,
			"exec_p99_us":       float64(ts.ExecP99.Nanoseconds()) / 1e3,
		}
	}
	point["pool_saturated_ms"] = float64(final.Pool.Saturated.Nanoseconds()) / 1e6
	point["pool_max_depth"] = final.Pool.MaxDepth
	return point
}

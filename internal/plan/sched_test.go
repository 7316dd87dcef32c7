package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sched"
)

// TestRunContextPreCancelled: a dead context never reaches the worker
// pool; the caller gets ctx.Err() and the request counts cancelled.
func TestRunContextPreCancelled(t *testing.T) {
	s := NewSession(4, 1)
	defer s.Close()
	req := Request{Kind: Reduce1D, Alg: core.Chain, P: 8, B: 4, Op: fabric.OpSum}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, "", req, poolTestInputs(req)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with dead context: %v, want context.Canceled", err)
	}
	st := s.SchedStats().Tenants[sched.DefaultTenantName]
	if st.Cancelled != 1 || st.Served != 0 {
		t.Fatalf("stats %+v: want cancelled=1 served=0", st)
	}
	// Admission precedes plan acquisition: the turned-away request must
	// not have compiled its shape or touched the cache.
	if cs := s.Stats(); cs.Misses != 0 || cs.Size != 0 {
		t.Fatalf("cache stats %+v: a rejected request compiled anyway", cs)
	}
}

// TestOverloadedTenantDoesNotCompile: requests rejected by admission
// control never reach the compiler or churn the shared plan cache.
func TestOverloadedTenantDoesNotCompile(t *testing.T) {
	s := NewSession(8, 1)
	defer s.Close()
	s.SetTenant("blocker", sched.TenantConfig{Priority: sched.Interactive})
	s.SetTenant("flood", sched.TenantConfig{MaxQueue: 1})

	slow := Request{Kind: Reduce2D, Alg2D: core.Auto2D, Width: 48, Height: 48, B: 64, Op: fabric.OpSum}
	if _, err := s.Plan(slow); err != nil {
		t.Fatal(err)
	}
	slowInputs := poolTestInputs(slow)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "blocker", slow, slowInputs); err != nil {
				t.Errorf("blocker: %v", err)
			}
		}()
	}
	waitTenant(t, s, "blocker", func(ts sched.TenantStats) bool { return ts.Depth >= 1 })

	// Fill flood's single queue slot with an already-compiled shape...
	small := Request{Kind: Reduce1D, Alg: core.Chain, P: 8, B: 4, Op: fabric.OpSum}
	if _, err := s.Plan(small); err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), "flood", small, poolTestInputs(small)); err != nil {
			t.Errorf("queued flood request: %v", err)
		}
	}()
	waitTenant(t, s, "flood", func(ts sched.TenantStats) bool { return ts.Depth == 1 })

	// ...then flood with distinct uncompiled shapes: every one must be
	// rejected before compilation.
	misses := s.Stats().Misses
	for b := 10; b < 20; b++ {
		novel := Request{Kind: Reduce1D, Alg: core.Chain, P: 8, B: b, Op: fabric.OpSum}
		if _, err := s.Submit(context.Background(), "flood", novel, poolTestInputs(novel)); !errors.Is(err, sched.ErrOverloaded) {
			t.Fatalf("flood over the bound: %v, want ErrOverloaded", err)
		}
	}
	if got := s.Stats().Misses; got != misses {
		t.Fatalf("cache misses went %d -> %d: rejected requests compiled", misses, got)
	}
	if fl := s.SchedStats().Tenants["flood"]; fl.Rejected != 10 {
		t.Fatalf("flood stats %+v: want rejected=10", fl)
	}
	wg.Wait()
}

// TestRunContextAbandonsQueuedRequest is the regression test for the
// PR 1–3 worker pool: Run had no cancellation path, so a caller
// abandoning a request queued behind a busy pool leaked a goroutine
// blocked on the slot channel forever. With the scheduler, RunContext
// unqueues the request and returns ctx.Err() while the pool is still
// busy — the request is never executed.
func TestRunContextAbandonsQueuedRequest(t *testing.T) {
	s := NewSession(8, 1)
	defer s.Close()

	// Slow replays under an Interactive-class tenant occupy the single
	// worker and its queue. Strict priority makes the test deterministic
	// on a starved single-core host: the Batch-class request below
	// cannot be dispatched while any blocker is still queued, however
	// the goroutines interleave.
	s.SetTenant("blocker", sched.TenantConfig{Priority: sched.Interactive})
	slow := Request{Kind: Reduce2D, Alg2D: core.Auto2D, Width: 48, Height: 48, B: 64, Op: fabric.OpSum}
	slowInputs := poolTestInputs(slow)
	if _, err := s.Plan(slow); err != nil { // compile before occupying the pool
		t.Fatal(err)
	}
	const blockers = 3
	var wg sync.WaitGroup
	for i := 0; i < blockers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "blocker", slow, slowInputs); err != nil {
				t.Errorf("blocker run: %v", err)
			}
		}()
	}
	waitTenant(t, s, "blocker", func(ts sched.TenantStats) bool { return ts.Depth >= 1 })

	// Queue a small default-tenant request behind the blockers, then
	// cancel it once it is observably queued.
	small := Request{Kind: Reduce1D, Alg: core.Chain, P: 8, B: 4, Op: fabric.OpSum}
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan struct{})
	go func() {
		defer cancel()
		for {
			if s.SchedStats().Tenants[sched.DefaultTenantName].Depth == 1 {
				return // queued: cancel it
			}
			select {
			case <-returned:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	_, err := s.Submit(ctx, "", small, poolTestInputs(small))
	close(returned)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned queued request: %v, want context.Canceled", err)
	}

	wg.Wait()
	s.Close()
	st := s.SchedStats()
	def := st.Tenants[sched.DefaultTenantName]
	if def.Cancelled != 1 || def.Served != 0 || def.Submitted != 1 {
		t.Fatalf("default tenant %+v: want the abandoned request cancelled, never executed", def)
	}
	if bl := st.Tenants["blocker"]; bl.Served != blockers {
		t.Fatalf("blocker tenant %+v: want %d served", bl, blockers)
	}
}

func waitTenant(t *testing.T, s *Session, name string, cond func(sched.TenantStats) bool) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for !cond(s.SchedStats().Tenants[name]) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for tenant %s state (now %+v)", name, s.SchedStats().Tenants[name])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvictionUnderConcurrentMixedTenantLoad churns a capacity-2 plan
// cache with five distinct shapes submitted by five tenants of mixed
// weight and priority, so plans are constantly evicted while replays of
// them are still in flight. Every report must stay bit-identical to a
// fresh single-threaded run: an evicted plan's replays must never pick up
// another plan's program or tape. Run under -race in CI.
func TestEvictionUnderConcurrentMixedTenantLoad(t *testing.T) {
	reqs := []Request{
		{Kind: Reduce1D, Alg: core.Chain, P: 12, B: 6, Op: fabric.OpSum},
		{Kind: AllReduce1D, Alg: core.Tree, P: 10, B: 5, Op: fabric.OpMax},
		{Kind: Broadcast1D, P: 9, B: 7},
		{Kind: Reduce2D, Alg2D: core.Auto2D, Width: 4, Height: 3, B: 5, Op: fabric.OpSum},
		{Kind: Gather, P: 6, B: 12},
	}
	want := make([]*core.Report, len(reqs))
	for i, req := range reqs {
		p, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = p.ExecuteUnpooled(poolTestInputs(req)); err != nil {
			t.Fatal(err)
		}
	}

	s := NewSessionSched(2, sched.Config{Workers: 4}) // capacity 2 < 5 shapes: eviction on nearly every miss
	classes := []sched.Priority{sched.Interactive, sched.Batch, sched.Batch, sched.Background, sched.Batch}
	for i := range reqs {
		s.SetTenant(fmt.Sprintf("tenant%d", i), sched.TenantConfig{Weight: i + 1, Priority: classes[i]})
	}

	const iters = 25
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant%d", i)
			inputs := poolTestInputs(reqs[i])
			for n := 0; n < iters; n++ {
				rep, err := s.Submit(context.Background(), name, reqs[i], inputs)
				if err != nil {
					t.Errorf("%s iter %d: %v", name, n, err)
					return
				}
				sameReport(t, want[i], rep, fmt.Sprintf("%s iter %d", name, n))
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("cache stats %+v: the load was supposed to evict", st)
	}
	var served int64
	for name, ts := range s.SchedStats().Tenants {
		if ts.Submitted != ts.Served+ts.Rejected+ts.Cancelled {
			t.Errorf("%s accounting unbalanced: %+v", name, ts)
		}
		served += ts.Served
	}
	if want := int64(len(reqs) * iters); served != want {
		t.Fatalf("served %d, want %d", served, want)
	}
}

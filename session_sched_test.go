package wse

// Tests of the multi-tenant serving layer as a consumer sees it: tenant
// handles share one plan cache but are scheduled under their own QoS,
// overload surfaces as ErrOverloaded, cancellation as ctx.Err(), and the
// accounting balances.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// The two shapes the scheduling tests serve: a chain reduce that drains at
// once, and a grid reduce (over constVectors(48*48, 64)) big enough to
// hold a worker while the test looks at the queues.
var (
	smallReduce = Shape{Kind: KindReduce, Alg: Chain, P: 8, B: 4, Op: Sum}
	bigReduce2D = Shape{Kind: KindReduce2D, Alg2D: Auto2D, Width: 48, Height: 48, B: 64, Op: Sum}
)

// TestTenantServingBitIdentical: the same collective served through two
// tenant handles and the session's own Run produces bit-identical
// reports, shares one cached plan, and is accounted per tenant.
func TestTenantServingBitIdentical(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	fg := s.WithTenant("fg", TenantConfig{Weight: 3, Priority: Interactive})
	bg := s.WithTenant("bg", TenantConfig{Weight: 1, Priority: Background})

	ctx := context.Background()
	sh := Shape{Kind: KindReduce, Alg: Chain, P: 16, B: 8, Op: Sum}
	vectors := constVectors(16, 8)
	want, err := s.Run(ctx, sh, vectors)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*Tenant{fg, bg} {
		got, err := tn.Run(ctx, sh, vectors)
		if err != nil {
			t.Fatalf("%s: %v", tn.Name(), err)
		}
		if got.Cycles != want.Cycles || got.Root[0] != want.Root[0] {
			t.Fatalf("%s: cycles=%d root=%v, want cycles=%d root=%v",
				tn.Name(), got.Cycles, got.Root[0], want.Cycles, want.Root[0])
		}
	}

	if ps := s.PlanStats(); ps.Misses != 1 || ps.Hits != 2 {
		t.Fatalf("plan stats %+v: three calls to one shape must compile once", ps)
	}
	st := s.SchedStats()
	if st.Tenants["fg"].Served != 1 || st.Tenants["bg"].Served != 1 || st.Tenants["default"].Served != 1 {
		t.Fatalf("sched stats %+v: each identity served once", st.Tenants)
	}
	if st.Tenants["fg"].Class != "interactive" || st.Tenants["bg"].Class != "background" {
		t.Fatalf("tenant classes not echoed: %+v", st.Tenants)
	}
}

// TestTenantShapeRun: a tenant handle serves reducing and algorithm-free
// kinds alike through Run.
func TestTenantShapeRun(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	tn := s.WithTenant("router", TenantConfig{})
	ctx := context.Background()

	rep, err := tn.Run(ctx, Shape{Kind: KindAllReduce, Alg: Tree, P: 8, B: 4, Op: Sum}, constVectors(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Root[0] != 8 {
		t.Fatalf("allreduce of ones over 8 PEs: root %v, want 8", rep.Root[0])
	}
	if _, err := tn.Run(ctx, Shape{Kind: KindBroadcast, P: 6, B: 5}, constVectors(1, 5)); err != nil {
		t.Fatal(err)
	}
}

// TestTenantOverloadSurfaces: a tenant at its queue bound gets
// ErrOverloaded through the public API, immediately, and the rejection
// is visible in SchedStats.
func TestTenantOverloadSurfaces(t *testing.T) {
	s := NewSession(SessionConfig{Workers: 1})
	defer s.Close()
	// Interactive blockers occupy the worker and make dispatch order
	// deterministic; the bounded tenant's queue can then only drain after
	// every blocker finishes.
	blocker := s.WithTenant("blocker", TenantConfig{Priority: Interactive})
	bounded := s.WithTenant("bounded", TenantConfig{MaxQueue: 1})
	ctx := context.Background()

	big := constVectors(48*48, 64)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := blocker.Run(ctx, bigReduce2D, big); err != nil {
				t.Errorf("blocker: %v", err)
			}
		}()
	}
	waitFor(t, func() bool { return s.SchedStats().Pool.Running == 1 })

	queued := make(chan error, 1)
	go func() {
		_, err := bounded.Run(ctx, smallReduce, constVectors(8, 4))
		queued <- err
	}()
	waitFor(t, func() bool { return s.SchedStats().Tenants["bounded"].Depth == 1 })

	start := time.Now()
	_, err := bounded.Run(ctx, smallReduce, constVectors(8, 4))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit over the bound: %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("overload rejection took %v", d)
	}

	wg.Wait()
	if err := <-queued; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
	st := s.SchedStats().Tenants["bounded"]
	if st.Rejected != 1 || st.Served != 1 || st.Submitted != 2 {
		t.Fatalf("bounded stats %+v: want 1 served, 1 rejected", st)
	}
}

// TestSessionCloseRejects: requests after Close return ErrSessionClosed.
func TestSessionCloseRejects(t *testing.T) {
	s := NewSession(SessionConfig{})
	tn := s.WithTenant("t", TenantConfig{})
	if _, err := tn.Run(context.Background(), smallReduce, constVectors(8, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), smallReduce, constVectors(8, 4)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("session method after close: %v, want ErrSessionClosed", err)
	}
	if _, err := tn.Run(context.Background(), smallReduce, constVectors(8, 4)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("tenant method after close: %v, want ErrSessionClosed", err)
	}
}

// TestTenantCancellation: a context deadline on a queued tenant request
// surfaces ctx.Err() and counts cancelled; accounting stays balanced.
func TestTenantCancellation(t *testing.T) {
	s := NewSession(SessionConfig{Workers: 1})
	defer s.Close()
	blocker := s.WithTenant("blocker", TenantConfig{Priority: Interactive})
	victim := s.WithTenant("victim", TenantConfig{})
	ctx := context.Background()

	big := constVectors(48*48, 64)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := blocker.Run(ctx, bigReduce2D, big); err != nil {
				t.Errorf("blocker: %v", err)
			}
		}()
	}
	waitFor(t, func() bool { return s.SchedStats().Pool.Running == 1 })

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := victim.Run(cctx, smallReduce, constVectors(8, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: %v, want context.Canceled", err)
	}
	wg.Wait()

	for name, ts := range s.SchedStats().Tenants {
		if ts.Submitted != ts.Served+ts.Rejected+ts.Cancelled {
			t.Errorf("tenant %s unbalanced: %+v", name, ts)
		}
	}
	if st := s.SchedStats().Tenants["victim"]; st.Cancelled != 1 {
		t.Fatalf("victim stats %+v: want cancelled=1", st)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for condition")
		}
		time.Sleep(time.Millisecond)
	}
}

package plan

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// TestWriteBackSharesItsStagesMeter: the write-back of a compiled plan
// counts into the one ledger of the miss. A compile failure is the same error
// with a store attached as without one, and not a store failure; a save that
// fails after it is one, and is what LastStoreError names.
func TestWriteBackSharesItsStagesMeter(t *testing.T) {
	defer faults.Reset()
	failedGet := func(c *Cache) error {
		t.Helper()
		faults.Set("plan.compile", faults.Point{Count: 1})
		_, err := c.Get(warmReq(4))
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("injected compile failure = %v; want it wrapped", err)
		}
		return err
	}
	ms := newMemStore()
	c := NewCache(4)
	c.SetStore(ms)
	if err, bare := failedGet(c), failedGet(NewCache(4)); err.Error() != bare.Error() {
		t.Fatalf("a compile failure over a store reads %q, without one %q", err, bare)
	}
	if cs := c.Stats(); cs.Miss.Compile.Errors != 1 || cs.Miss.Store.Misses != 1 || cs.StoreErrors != 0 || cs.LastStoreError != "" {
		t.Fatalf("a compile failure is not a store failure: %+v", cs)
	}

	ms.failSave = true
	if _, err := c.Get(warmReq(4)); err != nil {
		t.Fatalf("a failing save failed the lookup: %v", err)
	}
	cs := c.Stats()
	if m := cs.Miss; m.Compile.Lookups != 2 || m.Compile.Hits != 1 || m.Compile.Errors != 1 || m.SaveErrors != 1 {
		t.Fatalf("ledger after the failing save: %+v", m)
	}
	if cs.StoreErrors != 1 || !strings.Contains(cs.LastStoreError, "save failure") {
		t.Fatalf("cache after the failing save: %+v; want its LastStoreError to name the save", cs)
	}
}

// TestStandaloneChainSavesAtOnce: the miss saves before it returns, whether
// it runs on its own (as a Warm pass runs it) or a cache owns it, and the
// frame it writes carries the tape the compile recorded. A cache whose store
// was detached compiles and saves nothing.
func TestStandaloneChainSavesAtOnce(t *testing.T) {
	ms := newMemStore()
	ctx := context.Background()
	m := &missPath{store: ms, storeErr: func(err error) { t.Errorf("store failure: %v", err) }}
	if _, loaded, err := m.resolve(ctx, KeyOf(warmReq(4))); err != nil || loaded || ms.saves != 1 || !ms.taped(warmReq(4)) {
		t.Fatalf("standalone: %v, loaded %v, %d saves; want the plan compiled and saved, taped, before the miss returned", err, loaded, ms.saves)
	}
	if _, loaded, err := m.resolve(ctx, KeyOf(warmReq(4))); err != nil || !loaded || ms.saves != 1 {
		t.Fatalf("standalone again: %v, loaded %v, %d saves; want the stored plan and no save", err, loaded, ms.saves)
	}
	c := NewCache(4)
	c.SetStore(ms)
	if _, err := c.GetCtx(ctx, warmReq(5)); err != nil || ms.saves != 2 || !ms.taped(warmReq(5)) {
		t.Fatalf("owned: %v, %d saves; want the plan saved, taped, before the lookup returned", err, ms.saves)
	}
	c.SetStore(nil)
	if _, err := c.Get(warmReq(8)); err != nil || ms.saves != 2 || c.Stats().Misses != 2 {
		t.Fatalf("bare cache: %v, %d saves, %+v; want a compile and no save", err, ms.saves, c.Stats())
	}
}

// TestStatsInvariantUnderConcurrency: 32 goroutines look up shared and
// distinct keys through one cache over a store that fails one load in
// three. The ledger balances — store hits + misses + errors == lookups, one
// store lookup per cache miss, and every load that did not hit compiles —
// and every plan is saved once, at most.
func TestStatsInvariantUnderConcurrency(t *testing.T) {
	ms := newMemStore()
	ms.failLoadEvery = 3
	shared := []Request{warmReq(2), warmReq(3), warmReq(4), warmReq(5)}
	for _, req := range shared[:2] {
		p, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.recordTape(context.Background()); err != nil {
			t.Fatal(err)
		}
		ms.m[KeyOf(req)] = p
	}
	c := NewCache(64)
	c.SetStore(ms)
	const workers = 32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				req := shared[(i+j)%len(shared)]
				if j%2 == 1 {
					req = warmReq(6 + i)
				}
				if _, err := c.Get(req); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	cs := c.Stats()
	m := cs.Miss
	if keys := int64(len(shared) + workers); cs.Misses != keys || m.Store.Lookups != keys {
		t.Fatalf("%d cache misses, %d store lookups; want one of each per key, %d", cs.Misses, m.Store.Lookups, keys)
	}
	if m.Store.Hits+m.Store.Misses+m.Store.Errors != m.Store.Lookups {
		t.Errorf("store: %d hits + %d misses + %d errors != %d lookups", m.Store.Hits, m.Store.Misses, m.Store.Errors, m.Store.Lookups)
	}
	if m.Store.Errors == 0 || m.Compile.Errors != 0 || m.Compile.Lookups != m.Store.Misses+m.Store.Errors || m.Compile.Hits != m.Compile.Lookups {
		t.Errorf("ledger %+v: want some failed loads, each one and each store miss compiled", m)
	}
	if cs.StoreHits != m.Store.Hits || cs.StoreErrors != m.Store.Errors+m.SaveErrors {
		t.Errorf("PlanStats store fields %+v disagree with the ledger %+v", cs, m)
	}
	if int64(ms.saves) != m.Compile.Hits {
		t.Errorf("%d saves for %d compiled plans", ms.saves, m.Compile.Hits)
	}
	for key, n := range ms.savedKeys {
		if n != 1 {
			t.Errorf("%v saved %d times", key, n)
		}
	}
}

// TestEveryEntryPointWritesOnceTaped: Session.Plan, Prefetch, Warm and Run
// each write the plan their miss made once, tape included, and the runs
// that follow write nothing.
func TestEveryEntryPointWritesOnceTaped(t *testing.T) {
	ms := newMemStore()
	s := NewSession(8, 1)
	defer s.Close()
	s.SetStore(ms)
	if _, err := s.Plan(warmReq(4)); err != nil || ms.saves != 1 {
		t.Fatalf("Plan: %v, %d saves", err, ms.saves)
	}
	if fetched, err := s.Prefetch(context.Background(), warmReq(5)); err != nil || !fetched || ms.saves != 2 {
		t.Fatalf("Prefetch: fetched %v, %v, %d saves", fetched, err, ms.saves)
	}
	if st, err := s.Warm(ms, []Request{warmReq(6)}); err != nil || st.Compiled != 1 || ms.saves != 3 {
		t.Fatalf("Warm: %+v, %v, %d saves", st, err, ms.saves)
	}
	if _, err := s.Run(warmReq(7), onesVectors(7, 8)); err != nil || ms.saves != 4 {
		t.Fatalf("Run: %v, %d saves", err, ms.saves)
	}
	if cs := s.Stats(); cs.Misses != 2 || cs.StoreErrors != 0 || cs.TapeRecords != 4 {
		t.Fatalf("Plan and Run are the counted lookups, and every plan came taped: %+v", cs)
	}
	for _, req := range []Request{warmReq(4), warmReq(5), warmReq(6), warmReq(7)} {
		if !ms.taped(req) {
			t.Fatalf("%v was written without its tape", KeyOf(req))
		}
		if _, err := s.Run(req, onesVectors(req.P, req.B)); err != nil {
			t.Fatal(err)
		}
	}
	if ms.saves != 4 || s.Stats().TapeReplays != 5 {
		t.Fatalf("after the runs: %d saves, %+v; want 4 and every run a tape walk", ms.saves, s.Stats())
	}
}

// cancelOnErr is a context that cancels itself on the at-th call of Err: the
// watchdog of a recording run polls it every few thousand cycles, so a call
// count places the cancellation inside the run. at 0 never cancels, and
// counts the calls a lookup makes.
type cancelOnErr struct {
	context.Context
	cancel    context.CancelFunc
	calls, at atomic.Int64
}

func newCancelOnErr(at int64) *cancelOnErr {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelOnErr{Context: ctx, cancel: cancel}
	c.at.Store(at)
	return c
}

func (c *cancelOnErr) Err() error {
	if c.calls.Add(1) == c.at.Load() {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancelledRecordingCachesNothing: the miss records the plan's tape under
// the lookup's ctx. A ctx that fires mid-recording fails the lookup with its
// error, and nothing is cached or stored; the next lookup records and serves.
func TestCancelledRecordingCachesNothing(t *testing.T) {
	req := Request{Kind: Reduce1D, Alg: core.Chain, P: 4, B: 4096} // ~4k cycles: five watchdog polls
	lookup := func(ctx context.Context) (*Cache, *memStore, *Plan, error) {
		ms := newMemStore()
		c := NewCache(4)
		c.SetStore(ms)
		p, err := c.GetCtx(ctx, req)
		return c, ms, p, err
	}
	count := newCancelOnErr(0)
	if _, _, _, err := lookup(count); err != nil {
		t.Fatal(err)
	}
	// The calls end with the watchdog's polls and one check after the run.
	calls := count.calls.Load()
	if calls < 5 {
		t.Fatalf("the lookup asked its ctx %d times: too few for the recording to have polled it", calls)
	}
	c, ms, p, err := lookup(newCancelOnErr(calls - 2))
	if p != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("lookup cancelled mid-recording: %v, %v; want context.Canceled", p != nil, err)
	}
	if st := c.Stats(); st.Size != 0 || ms.saves != 0 || st.TapeRecords+st.TapeDeclined != 0 {
		t.Fatalf("after the cancelled lookup: %+v, %d saves; want nothing cached or stored", st, ms.saves)
	}
	if p, err = c.GetCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); p.replay.tape.Load() == nil || st.Size != 1 || st.TapeRecords != 1 || ms.saves != 1 || !ms.taped(req) {
		t.Fatalf("the next lookup: tape %v, %+v, %d saves; want it recorded, cached and stored once", p.replay.tape.Load() != nil, st, ms.saves)
	}
	rep, err := p.Execute(onesVectors(req.P, req.B))
	if err != nil || rep.Root[0] != float32(req.P) || p.replay.own.Load() != 0 || c.Stats().TapeReplays != 1 {
		t.Fatalf("serving it: %v, root %v, %+v; want a tape walk", err, rep, c.Stats())
	}
}

// TestCancelledRetapeIsNoStoreError: a stored frame without its tape is
// taped on its load, under the lookup's ctx. A ctx that has fired fails the
// lookup with its typed error, but the store handed over a usable frame: the
// step is the store's hit, and neither StoreErrors nor LastStoreError moves.
func TestCancelledRetapeIsNoStoreError(t *testing.T) {
	req := Request{Kind: Reduce1D, Alg: core.Chain, P: 4, B: 16}
	untaped, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	ms := newMemStore()
	ms.m[untaped.Key] = untaped
	c := NewCache(4)
	c.SetStore(ms)
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if p, err := c.GetCtx(gone, req); p != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("lookup under a cancelled ctx: %v, %v; want context.Canceled", p != nil, err)
	}
	st := c.Stats()
	s := st.Miss.Store
	if st.StoreErrors != 0 || st.LastStoreError != "" || s.Lookups != 1 || s.Hits != 1 || s.Hits+s.Misses+s.Errors != s.Lookups {
		t.Fatalf("after the cancelled re-tape: %+v; want one store hit and no store error", st)
	}
	if st.Miss.Compile.Lookups != 0 || ms.saves != 0 {
		t.Fatalf("the cancelled re-tape went on: %+v, %d saves", st.Miss, ms.saves)
	}
}

package plan

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

func stageNamed(t *testing.T, r Resolver, name string) StageStats {
	t.Helper()
	for _, st := range r.Stats() {
		if st.Stage == name {
			return st
		}
	}
	t.Fatalf("chain has no stage %q: %+v", name, r.Stats())
	return StageStats{}
}

// TestWriteBackSharesItsStagesMeter: a write-back counts into the entry of
// the stage it wraps — one LastError, the newest failure wins — so a save
// that fails after an older compile failure is what the stage and the cache
// both report.
func TestWriteBackSharesItsStagesMeter(t *testing.T) {
	ms := newMemStore()
	chain := storeChain(ms)
	c := NewCache(4)
	c.SetResolver(chain)

	faults.Set("plan.compile", faults.Point{Count: 1})
	defer faults.Reset()
	_, err := c.Get(warmReq(4))
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "compile" || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("injected compile failure = %v; want *StageError{compile} wrapping it", err)
	}
	if st := stageNamed(t, chain, "compile"); st.Errors != 1 || !strings.Contains(st.LastError, "injected") {
		t.Fatalf("after the compile failure: %+v", st)
	}
	if cs := c.Stats(); cs.StoreErrors != 0 || cs.LastStoreError != "" {
		t.Fatalf("a compile failure is not a store failure: %+v", cs)
	}

	ms.failSave = true
	if _, err := c.Get(warmReq(4)); err != nil {
		t.Fatalf("a failing save failed the lookup: %v", err)
	}
	st := stageNamed(t, chain, "compile")
	if st.Lookups != 2 || st.Hits != 1 || st.Errors != 1 || st.SaveErrors != 1 || !strings.Contains(st.LastError, "save failure") {
		t.Fatalf("compile stage after the failing save: %+v; want its LastError to name the save", st)
	}
	if cs := c.Stats(); cs.StoreErrors != 1 || !strings.Contains(cs.LastStoreError, "save failure") {
		t.Fatalf("cache after the failing save: %+v", cs)
	}
	if n := len(chain.Stats()); n != 3 {
		t.Fatalf("the write-back added an entry of its own: %d stages, want sequential, store, compile", n)
	}
}

// TestStandaloneChainSavesAtOnce: a chain saves before Resolve returns,
// whether it stands alone or a cache owns it, and the frame it writes carries
// the tape the compile stage recorded.
func TestStandaloneChainSavesAtOnce(t *testing.T) {
	ms := newMemStore()
	chain := storeChain(ms)
	ctx := context.Background()
	if _, err := chain.Resolve(ctx, KeyOf(warmReq(4))); err != nil || ms.saves != 1 || !ms.taped(warmReq(4)) {
		t.Fatalf("standalone: %v, %d saves; want the plan saved, taped, before Resolve returned", err, ms.saves)
	}
	c := NewCache(4)
	c.SetResolver(chain)
	if _, err := c.GetCtx(ctx, warmReq(5)); err != nil || ms.saves != 2 || !ms.taped(warmReq(5)) {
		t.Fatalf("owned: %v, %d saves; want the plan saved, taped, before the lookup returned", err, ms.saves)
	}
	c.SetResolver(nil)
	if _, err := chain.Resolve(ctx, KeyOf(warmReq(7))); err != nil || ms.saves != 3 {
		t.Fatalf("detached: %v, %d saves; want the plan saved before Resolve returned", err, ms.saves)
	}
	if _, err := c.Get(warmReq(8)); err != nil || ms.saves != 3 || c.Stats().Misses != 2 {
		t.Fatalf("bare cache: %v, %d saves, %+v; want a compile and no save", err, ms.saves, c.Stats())
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

package plan

import (
	"context"
	"errors"
	"strings"
	"testing"

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

// TestStandaloneChainSavesAtOnce: the same chain saves before Resolve
// returns while nothing owns it, leaves an open plan alone once a cache
// does, and saves at once again when the cache lets go of it.
func TestStandaloneChainSavesAtOnce(t *testing.T) {
	ms := newMemStore()
	chain := storeChain(ms)
	ctx := context.Background()
	if _, err := chain.Resolve(ctx, KeyOf(warmReq(4))); err != nil || ms.saves != 1 {
		t.Fatalf("standalone: %v, %d saves; want the plan saved before Resolve returned", err, ms.saves)
	}
	c := NewCache(4)
	c.SetResolver(chain)
	if _, _, err := c.lookup(ctx, warmReq(5)); err != nil || ms.saves != 1 {
		t.Fatalf("owned, executing lookup: %v, %d saves; want the save left to the execution", err, ms.saves)
	}
	if _, err := c.Get(warmReq(6)); err != nil || ms.saves != 2 {
		t.Fatalf("owned, Get: %v, %d saves; want the pending save flushed", err, ms.saves)
	}
	c.SetResolver(nil)
	if _, err := chain.Resolve(ctx, KeyOf(warmReq(7))); err != nil || ms.saves != 3 {
		t.Fatalf("detached: %v, %d saves; want the plan saved before Resolve returned", err, ms.saves)
	}
	if _, err := c.Get(warmReq(8)); err != nil || ms.saves != 3 || c.Stats().Misses != 3 {
		t.Fatalf("bare cache: %v, %d saves, %+v; want a compile and no save", err, ms.saves, c.Stats())
	}
}

// TestNonExecutingEntryPointsFlush: Session.Plan, Prefetch and Warm execute
// nothing, so what their miss left pending is saved before they return — and
// the tape a later first run records is worth the second write.
func TestNonExecutingEntryPointsFlush(t *testing.T) {
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
	if cs := s.Stats(); cs.Misses != 1 || cs.StoreErrors != 0 {
		t.Fatalf("only Plan is a counted lookup: %+v", cs)
	}
	for i, req := range []Request{warmReq(4), warmReq(5), warmReq(6)} {
		if _, err := s.Run(req, onesVectors(req.P, req.B)); err != nil {
			t.Fatal(err)
		}
		if want := 4 + i; ms.saves != want {
			t.Fatalf("first run of %v: %d saves, want %d (the frame rewritten with its tape)", KeyOf(req), ms.saves, want)
		}
	}
}

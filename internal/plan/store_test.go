package plan

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
)

// memStore is an in-memory PlanStore for exercising the session/cache
// persistence hooks without dragging the on-disk store (and an import
// cycle) into this package. Plans are shared by pointer, which is safe:
// plans are immutable under Execute.
type memStore struct {
	mu        sync.Mutex
	m         map[Key]*Plan
	loads     int
	saves     int
	savedKeys map[Key]int

	failLoad      bool
	failLoadEvery int // fail every n-th load (0: none)
	failSave      bool
}

func newMemStore() *memStore { return &memStore{m: make(map[Key]*Plan), savedKeys: make(map[Key]int)} }

func (s *memStore) Load(key Key) (*Plan, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	if s.failLoad || s.failLoadEvery > 0 && s.loads%s.failLoadEvery == 0 {
		return nil, false, errors.New("memstore: load failure")
	}
	p, ok := s.m[key]
	return p, ok, nil
}

func (s *memStore) Save(p *Plan) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves++
	s.savedKeys[p.Key]++
	if s.failSave {
		return errors.New("memstore: save failure")
	}
	s.m[p.Key] = p
	return nil
}

// taped reports whether the plan stored for req carries its tape.
func (s *memStore) taped(req Request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.m[KeyOf(req)]
	return p != nil && p.replay.tape.Load() != nil
}

func (s *memStore) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	return out
}

func warmReq(p int) Request {
	return Request{Kind: Reduce1D, Alg: core.Chain, P: p, B: 8, Op: fabric.OpSum}
}

func onesVectors(p, b int) [][]float32 {
	out := make([][]float32, p)
	for i := range out {
		v := make([]float32, b)
		for j := range v {
			v[j] = 1
		}
		out[i] = v
	}
	return out
}

// TestCacheStoreReadWriteThrough checks the cache's persistence hooks:
// a compile writes through, a second cache (a "new process") loads the
// stored plan instead of compiling, and store failures degrade to plain
// compilation with the error counted, never surfaced to the caller.
func TestCacheStoreReadWriteThrough(t *testing.T) {
	ms := newMemStore()
	c1 := NewCache(8)
	c1.SetStore(ms)
	if _, err := c1.Get(warmReq(8)); err != nil {
		t.Fatal(err)
	}
	if len(ms.m) != 1 {
		t.Fatalf("write-through stored %d plans, want 1", len(ms.m))
	}
	st := c1.Stats()
	if st.StoreHits != 0 || st.StoreErrors != 0 {
		t.Fatalf("first compile: %+v", st)
	}

	c2 := NewCache(8)
	c2.SetStore(ms)
	p, err := c2.Get(warmReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 8 || p.Spec == nil {
		t.Fatal("store-loaded plan is hollow")
	}
	st = c2.Stats()
	if st.StoreHits != 1 || st.Misses != 1 {
		t.Fatalf("store read-through not taken: %+v", st)
	}
	saves := ms.saves
	if _, err := c2.Get(warmReq(8)); err != nil { // resident now
		t.Fatal(err)
	}
	if ms.saves != saves {
		t.Fatal("a store-loaded plan was saved back")
	}

	// A failing store must not fail lookups.
	bad := newMemStore()
	bad.failLoad, bad.failSave = true, true
	c3 := NewCache(8)
	c3.SetStore(bad)
	if _, err := c3.Get(warmReq(16)); err != nil {
		t.Fatal(err)
	}
	st = c3.Stats()
	if st.StoreErrors != 2 { // one load failure + one save failure
		t.Fatalf("store failures not counted: %+v", st)
	}
}

// TestSessionWarmAndExport covers the deployment cycle at the plan level:
// Warm compiles a shape list into an empty store, and a second session
// warms from it by decoding alone.
func TestSessionWarmAndExport(t *testing.T) {
	ms := newMemStore()
	stage := NewSession(8, 2)
	reqs := []Request{warmReq(4), warmReq(8), warmReq(16)}
	st, err := stage.Warm(ms, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compiled != 3 || st.Loaded != 0 || len(ms.m) != 3 {
		t.Fatalf("staging warm: %+v, %d stored", st, len(ms.m))
	}
	// Warming again is a no-op: everything is resident.
	if st, err = stage.Warm(ms, reqs); err != nil || st.Resident != 3 || st.Compiled != 0 {
		t.Fatalf("re-warm: %+v, %v", st, err)
	}

	serve := NewSession(8, 2)
	if st, err = serve.Warm(ms, nil); err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 3 || st.Compiled != 0 {
		t.Fatalf("serving warm should decode everything: %+v", st)
	}
	// First requests replay without a compile: zero misses.
	inputs := vectors(8, 8, 1)
	rep, err := serve.Run(warmReq(8), inputs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stage.Run(warmReq(8), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != want.Cycles || !sameVec(rep.Root, want.Root) {
		t.Fatal("warmed session replays differently")
	}
	if cs := serve.Stats(); cs.Misses != 0 || cs.Hits != 1 {
		t.Fatalf("warmed session compiled on the serving path: %+v", cs)
	}

	// A failed shape is reported but does not abort the rest.
	st, err = stage.Warm(ms, []Request{{Kind: Kind("bogus"), P: 4, B: 4}, warmReq(64)})
	if err == nil {
		t.Fatal("bogus shape not reported")
	}
	if st.Compiled != 1 {
		t.Fatalf("good shape not warmed past the bad one: %+v", st)
	}
}

// TestWarmRacesRun drives live Run traffic against concurrent Warm passes
// (store-fed and compile-fed) on one session — the -race proof that
// pre-population and serving can overlap, as they do when a process warms
// in the background while already accepting requests.
func TestWarmRacesRun(t *testing.T) {
	ms := newMemStore()
	seed := NewSession(16, 4)
	shapes := make([]Request, 6)
	for i := range shapes {
		shapes[i] = warmReq(4 << uint(i%3)) // 4, 8, 16 with duplicates
		shapes[i].B = 8 + 2*(i/3)           // two B variants per P
	}
	if _, err := seed.Warm(ms, shapes[:3]); err != nil { // store starts half full
		t.Fatal(err)
	}

	sess := NewSession(4, 4) // capacity 4 < 6 shapes: eviction in play
	sess.SetStore(ms)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := shapes[(w+i)%len(shapes)]
				rep, err := sess.Run(req, onesVectors(req.P, req.B))
				if err != nil {
					errs <- err
					return
				}
				if got, want := rep.Root[0], float32(req.P); got != want {
					errs <- fmt.Errorf("shape p=%d returned %v, want %v", req.P, got, want)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := sess.Warm(ms, shapes); err != nil {
					errs <- err
					return
				}
				if _, err := sess.Warm(ms, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestWriteBackSavesOnceAtTheMiss: under a session the write-through of a
// compiled plan happens once, at the miss, with the tape the compile stage
// recorded — or bare, when the engine fails the program — and a save that
// fails there is still a counted store error. A Tracer on the request does
// not keep the tape out of the frame: it rides on this process's plan only.
func TestWriteBackSavesOnceAtTheMiss(t *testing.T) {
	run := func(ms *memStore, req Request) (CacheStats, error) {
		s := NewSession(4, 1)
		defer s.Close()
		s.SetStore(ms)
		_, err := s.Run(req, onesVectors(req.P, req.B))
		return s.Stats(), err
	}

	ms := newMemStore()
	if st, err := run(ms, warmReq(4)); err != nil || st.TapeRecords != 1 || st.StoreErrors != 0 {
		t.Fatalf("first run: %+v, %v", st, err)
	}
	if ms.saves != 1 || !ms.taped(warmReq(4)) {
		t.Fatalf("compiled plan: %d saves, tape saved %v; want one save carrying the tape", ms.saves, ms.taped(warmReq(4)))
	}

	traced := warmReq(5)
	traced.Opt.Tracer = &fabric.Tracer{Cap: 1}
	if st, err := run(ms, traced); err != nil || st.TapeDeclined != 1 || st.TapeReplays != 0 {
		t.Fatalf("traced run: %+v, %v", st, err)
	}
	if ms.saves != 2 || !ms.taped(traced) {
		t.Fatalf("traced plan: %d saves in all, tape saved %v; want it saved once, taped", ms.saves, ms.taped(traced))
	}

	wedged := warmReq(6)
	wedged.Opt.MaxCycles = 3
	if _, err := run(ms, wedged); err == nil {
		t.Fatal("a run capped at 3 cycles completed")
	}
	if ms.saves != 3 || ms.taped(wedged) {
		t.Fatalf("plan the engine fails: %d saves in all, tape saved %v; want it saved once, bare", ms.saves, ms.taped(wedged))
	}

	failing := newMemStore()
	failing.failSave = true
	st, err := run(failing, warmReq(7))
	if err != nil {
		t.Fatalf("a failing store failed the run: %v", err)
	}
	if failing.saves != 1 || st.StoreErrors != 1 || st.LastStoreError == "" {
		t.Fatalf("failing store: %d save attempts, %+v; want one attempt, counted", failing.saves, st)
	}
}

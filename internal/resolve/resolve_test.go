package resolve

// The bench harness's spelling of the miss path: its chain falls through
// from the store to the compiler, a failing store degrades to a compile,
// compiled plans are written back once with their tapes, and a plan encodes
// the same bytes whichever step made it.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/planstore"
)

func testKey(p int) plan.Key {
	return plan.KeyOf(plan.Request{Kind: plan.Reduce1D, Alg: core.Chain, P: p, B: 8, Op: fabric.OpSum})
}

// memStore is an in-memory PlanStore.
type memStore struct {
	mu       sync.Mutex
	m        map[plan.Key]*plan.Plan
	loads    int
	saves    int
	failLoad bool
	failSave bool
}

func newMemStore() *memStore { return &memStore{m: make(map[plan.Key]*plan.Plan)} }

func (s *memStore) Load(key plan.Key) (*plan.Plan, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	if s.failLoad {
		return nil, false, errors.New("memstore: load failure")
	}
	p, ok := s.m[key]
	return p, ok, nil
}

func (s *memStore) Save(p *plan.Plan) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves++
	if s.failSave {
		return errors.New("memstore: save failure")
	}
	s.m[p.Key] = p
	return nil
}

func mustCompile(t testing.TB, key plan.Key) *plan.Plan {
	t.Helper()
	p, err := plan.Compile(key.Request())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// chain is the one composition the bench harness builds.
func chain(ps plan.PlanStore) Resolver { return Sequential(Store(ps), WriteBack(Compiler(), ps)) }

// checkInvariant asserts hits+misses+errors == lookups on both steps, and
// that the chain reports the store step and the compile step.
func checkInvariant(t *testing.T, r Resolver) {
	t.Helper()
	st := r.Stats()
	if len(st) != 2 || st[0].Stage != "store" || st[1].Stage != "compile" {
		t.Fatalf("stats %+v; want a store and a compile entry", st)
	}
	for _, st := range st {
		if st.Hits+st.Misses+st.Errors != st.Lookups {
			t.Errorf("stage %s: hits %d + misses %d + errors %d != lookups %d",
				st.Stage, st.Hits, st.Misses, st.Errors, st.Lookups)
		}
	}
}

// TestSequentialFallthrough: a store that lacks the plan falls through to
// the compiler; one that holds it answers alone.
func TestSequentialFallthrough(t *testing.T) {
	key := testKey(4)
	ms := newMemStore()
	r := chain(ms)
	if _, err := r.Resolve(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st[0].Misses != 1 || st[1].Hits != 1 {
		t.Fatalf("empty store: %+v; want a store miss and a compile", st)
	}
	if _, err := r.Resolve(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st[0].Hits != 1 || st[1].Lookups != 1 {
		t.Fatalf("stored plan: %+v; want a store hit and no second compile", st)
	}
	checkInvariant(t, r)
}

// TestOptionalDegrades: a store that fails its load degrades to the
// compiler; the failure is counted as the store step's error.
func TestOptionalDegrades(t *testing.T) {
	ms := newMemStore()
	ms.failLoad = true
	r := chain(ms)
	p, err := r.Resolve(context.Background(), testKey(4))
	if err != nil || p == nil {
		t.Fatalf("a failing store did not degrade: %v, %v", p, err)
	}
	if st := r.Stats(); st[0].Errors != 1 || st[1].Hits != 1 {
		t.Errorf("stats = %+v, want the failure counted and the plan compiled", st)
	}
	checkInvariant(t, r)
}

// TestBitIdenticalAcrossStages resolves one key through every step — the
// compiler, the store, a compile a failing store degraded to, a cache's
// residency — and asserts the encoded plan bytes are identical: it must not
// matter where a plan came from.
func TestBitIdenticalAcrossStages(t *testing.T) {
	key := testKey(6)

	compiled, err := Compiler().Resolve(context.Background(), key)
	if err != nil {
		t.Fatalf("compiler stage: %v", err)
	}
	ms := newMemStore()
	ms.m[key] = mustCompile(t, key)
	stored, err := Store(ms).Resolve(context.Background(), key)
	if err != nil {
		t.Fatalf("store stage: %v", err)
	}
	failing := newMemStore()
	failing.failLoad = true
	degraded, err := chain(failing).Resolve(context.Background(), key)
	if err != nil {
		t.Fatalf("degraded chain: %v", err)
	}
	cache := plan.NewCache(4)
	if _, err := cache.Get(key.Request()); err != nil {
		t.Fatalf("cache fill: %v", err)
	}
	cached, ok := cache.Lookup(key)
	if !ok {
		t.Fatal("plan not resident after the fill")
	}

	enc := func(p *plan.Plan) []byte {
		blob, _, err := planstore.Encode(p)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return blob
	}
	want := enc(compiled)
	if !bytes.Equal(enc(stored), want) {
		t.Error("store-resolved plan encodes differently from compiled")
	}
	if !bytes.Equal(enc(degraded), want) {
		t.Error("plan compiled past a failing store encodes differently from compiled")
	}
	if !bytes.Equal(enc(cached), want) {
		t.Error("memory-resolved plan encodes differently from compiled")
	}
}

// TestWriteBack checks the convergence mechanic: a compile lands in the
// store, and a second chain over the same store resolves without compiling.
// A failing save does not fail the lookup.
func TestWriteBack(t *testing.T) {
	key := testKey(4)
	ms := newMemStore()
	if _, err := chain(ms).Resolve(context.Background(), key); err != nil {
		t.Fatalf("first resolve: %v", err)
	}
	if ms.saves != 1 {
		t.Fatalf("saves = %d, want 1 write-back", ms.saves)
	}
	second := chain(ms)
	if _, err := second.Resolve(context.Background(), key); err != nil {
		t.Fatalf("second resolve: %v", err)
	}
	if st := second.Stats(); st[0].Hits != 1 || st[1].Lookups != 0 {
		t.Errorf("second chain: %+v; want a store hit and no compile", st)
	}

	ms.failSave = true
	if _, err := chain(ms).Resolve(context.Background(), testKey(8)); err != nil {
		t.Fatalf("save failure leaked into the lookup: %v", err)
	}
	if ms.saves != 2 {
		t.Errorf("saves = %d, want the failed write-back attempted once", ms.saves)
	}
}

// TestWriteBackCarriesTheTape: under a store-backed session a compiled plan
// is saved once, at the miss, with the tape the compile recorded; the next
// session's load hands the plan over ready to replay and writes nothing; a
// chain resolved on its own writes the same taped frame; and a frame stored
// without a tape (an earlier build's) is taped at its load and rewritten
// once.
func TestWriteBackCarriesTheTape(t *testing.T) {
	store, err := planstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := testKey(6).Request()
	inputs := req.Inputs(func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 0.5 + float32(i)
		}
		return v
	})
	run := func() plan.CacheStats {
		t.Helper()
		s := plan.NewSession(4, 1)
		defer s.Close()
		s.SetStore(store)
		if _, err := s.Run(req, inputs); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	stored := func() *plan.Plan {
		t.Helper()
		p, ok, err := store.Load(plan.KeyOf(req))
		if err != nil || !ok {
			t.Fatalf("stored plan: ok=%v err=%v", ok, err)
		}
		return p
	}

	if st := run(); st.TapeRecords != 1 || st.TapeLoaded != 0 {
		t.Fatalf("compiling session: %+v; want one tape recorded", st)
	}
	if tape := stored().Tape(); tape == nil || store.Stats().Saves != 1 {
		t.Fatalf("after the compiling session the store holds a tape: %v, after %d saves; want it saved once, with the tape", tape != nil, store.Stats().Saves)
	}
	if st := run(); st.TapeRecords != 0 || st.TapeLoaded != 1 || st.TapeReplays != 1 {
		t.Fatalf("loading session: %+v; want the tape loaded and replayed, nothing recorded", st)
	}
	if saves := store.Stats().Saves; saves != 1 {
		t.Fatalf("a plan loaded with its tape was written again: %d saves", saves)
	}

	// A chain resolved on its own writes the frame taped as well.
	other := testKey(7)
	if _, err := chain(store).Resolve(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	req = other.Request()
	if tape := stored().Tape(); tape == nil || store.Stats().Saves != 2 {
		t.Fatalf("a chain resolved on its own stored a tape: %v, %d saves; want one save, taped", tape != nil, store.Stats().Saves)
	}

	// A bare frame is taped where it loads, and rewritten once.
	bare, err := plan.Compile(testKey(8).Request())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(bare); err != nil {
		t.Fatal(err)
	}
	req = bare.Key.Request()
	inputs = append(inputs, inputs[0], inputs[0]) // P = 8
	if st := run(); st.TapeRecords != 1 || st.TapeLoaded != 0 || st.StoreHits != 1 {
		t.Fatalf("healing session: %+v; want the bare frame loaded and its tape recorded", st)
	}
	if tape := stored().Tape(); tape == nil || store.Stats().Saves != 4 {
		t.Fatalf("after its load the bare frame holds a tape: %v, after %d saves; want it rewritten once", tape != nil, store.Stats().Saves)
	}
	if st := run(); st.TapeLoaded != 1 || st.TapeReplays != 1 || store.Stats().Saves != 4 {
		t.Fatalf("after the heal: %+v, %d saves; want the tape loaded and nothing written", st, store.Stats().Saves)
	}
}

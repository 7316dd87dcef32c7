package resolve

// The resolver-chain contract under -race: sequential fallthrough and
// mandatory/optional semantics, the per-stage stats invariant
// (hits+misses+errors = lookups), and bit-identical plans regardless of
// which stage resolved.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
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

// fakeStage is a scriptable Resolver for combinator tests.
type fakeStage struct {
	Resolver
	plan  *plan.Plan
	err   error
	calls atomic.Int64
}

func fake(name string, p *plan.Plan, err error) *fakeStage {
	s := &fakeStage{plan: p, err: err}
	s.Resolver = plan.Leaf(name, s.resolve)
	return s
}

func (s *fakeStage) resolve(context.Context, plan.Key, *obs.Span) (*plan.Plan, error) {
	s.calls.Add(1)
	return s.plan, s.err
}

func mustCompile(t testing.TB, key plan.Key) *plan.Plan {
	t.Helper()
	p, err := plan.Compile(key.Request())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// checkInvariant asserts hits+misses+errors == lookups on every stage of
// a chain's stats.
func checkInvariant(t *testing.T, r Resolver) {
	t.Helper()
	for _, st := range r.Stats() {
		if st.Hits+st.Misses+st.Errors != st.Lookups {
			t.Errorf("stage %s: hits %d + misses %d + errors %d != lookups %d",
				st.Stage, st.Hits, st.Misses, st.Errors, st.Lookups)
		}
	}
}

func TestSequentialFallthrough(t *testing.T) {
	key := testKey(4)
	p := mustCompile(t, key)
	miss := fake("a", nil, ErrNotFound)
	hit := fake("b", p, nil)
	never := fake("c", nil, errors.New("must not run"))
	chain := Sequential(miss, hit, never)

	got, err := chain.Resolve(context.Background(), key)
	if err != nil || got != p {
		t.Fatalf("Resolve = %v, %v; want the plan from stage b", got, err)
	}
	if never.calls.Load() != 0 {
		t.Error("stage after the hit was consulted")
	}
	st := chain.Stats()
	if st[0].Stage != "sequential" || st[0].Hits != 1 {
		t.Errorf("sequential stats = %+v, want 1 hit", st[0])
	}
	checkInvariant(t, chain)
}

func TestSequentialMandatoryFailure(t *testing.T) {
	key := testKey(4)
	boom := errors.New("store exploded")
	chain := Sequential(fake("broken", nil, boom), fake("after", mustCompile(t, key), nil))
	_, err := chain.Resolve(context.Background(), key)
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "broken" || !errors.Is(err, boom) {
		t.Fatalf("mandatory failure = %v, want *StageError{broken} wrapping the cause", err)
	}
	checkInvariant(t, chain)
}

func TestOptionalDegrades(t *testing.T) {
	key := testKey(4)
	p := mustCompile(t, key)
	broken := fake("broken", nil, errors.New("store down"))
	chain := Sequential(Optional(broken), fake("compile", p, nil))
	got, err := chain.Resolve(context.Background(), key)
	if err != nil || got != p {
		t.Fatalf("optional failure did not degrade: %v, %v", got, err)
	}
	// The optional wrapper hides the failure from composition but the
	// stage's own stats must still record it — degradation stays
	// observable.
	if st := broken.Stats()[0]; st.Errors != 1 {
		t.Errorf("broken stage stats = %+v, want the failure counted as an error", st)
	}
	checkInvariant(t, chain)
}

func TestSequentialAllMiss(t *testing.T) {
	chain := Sequential(fake("a", nil, ErrNotFound), fake("b", nil, ErrNotFound))
	if _, err := chain.Resolve(context.Background(), testKey(4)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("all-miss chain = %v, want ErrNotFound", err)
	}
	checkInvariant(t, chain)
}

// TestStatsInvariantUnderConcurrency hammers a mixed-outcome chain from
// many goroutines and checks the accounting still balances per stage.
func TestStatsInvariantUnderConcurrency(t *testing.T) {
	key := testKey(4)
	ms := newMemStore()
	ms.m[key] = mustCompile(t, key)
	missKey := testKey(8)
	chain := Sequential(Optional(Store(ms)), WriteBack(Compiler(), ms))

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				k := key
				if (i+j)%2 == 0 {
					k = missKey
				}
				if _, err := chain.Resolve(context.Background(), k); err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	checkInvariant(t, chain)
	if st := chain.Stats()[0]; st.Lookups != 160 || st.Hits != 160 {
		t.Errorf("chain stats = %+v, want 160 lookups all hits", st)
	}
}

// TestBitIdenticalAcrossStages resolves one key through every stage kind
// — compiler, store, a cache's residency — and asserts the encoded plan
// bytes are identical: it must not matter where a plan came from.
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
	if !bytes.Equal(enc(cached), want) {
		t.Error("memory-resolved plan encodes differently from compiled")
	}
}

// TestWriteBack checks the convergence mechanic: a compile behind
// WriteBack lands in the store, and a second chain over the same store
// resolves without compiling. Save failures are absorbed and counted.
func TestWriteBack(t *testing.T) {
	key := testKey(4)
	ms := newMemStore()
	first := Sequential(Optional(Store(ms)), WriteBack(Compiler(), ms))
	if _, err := first.Resolve(context.Background(), key); err != nil {
		t.Fatalf("first resolve: %v", err)
	}
	if ms.saves != 1 {
		t.Fatalf("saves = %d, want 1 write-back", ms.saves)
	}
	second := Sequential(Optional(Store(ms)), WriteBack(Compiler(), ms))
	if _, err := second.Resolve(context.Background(), key); err != nil {
		t.Fatalf("second resolve: %v", err)
	}
	for _, st := range second.Stats() {
		if st.Stage == "compile" && st.Lookups != 0 {
			t.Errorf("second chain compiled despite the write-back: %+v", st)
		}
		if st.Stage == "store" && st.Hits != 1 {
			t.Errorf("second chain store stats = %+v, want 1 hit", st)
		}
	}

	ms.mu.Lock()
	ms.failSave = true
	ms.mu.Unlock()
	wb := WriteBack(Compiler(), ms)
	if _, err := wb.Resolve(context.Background(), testKey(8)); err != nil {
		t.Fatalf("save failure leaked into the lookup: %v", err)
	}
	if st := wb.Stats()[0]; st.SaveErrors != 1 {
		t.Errorf("stats = %+v, want the failed write-back counted", st)
	}
}

// TestCacheResolverIntegration wires a chain into a plan.Cache via
// SetResolver and checks the miss path goes through the chain (store
// hit: no compile) and the cache's store counters read the chain's.
func TestCacheResolverIntegration(t *testing.T) {
	key := testKey(4)
	ms := newMemStore()
	ms.m[key] = mustCompile(t, key)
	chain := Sequential(Optional(Store(ms)), WriteBack(Compiler(), ms))
	cache := plan.NewCache(4)
	cache.SetResolver(chain)

	if _, err := cache.Get(key.Request()); err != nil {
		t.Fatalf("get through resolver: %v", err)
	}
	for _, st := range chain.Stats() {
		switch st.Stage {
		case "store":
			if st.Hits != 1 {
				t.Errorf("store stats = %+v, want the fill's hit", st)
			}
		case "compile":
			if st.Lookups != 0 {
				t.Errorf("compile ran despite the store hit: %+v", st)
			}
		}
	}
	if st := cache.Stats(); st.StoreHits != 1 || st.StoreErrors != 0 {
		t.Errorf("cache store counters = %+v, want the chain's one store hit", st)
	}
	// Second lookup: resident, chain not consulted again.
	if _, err := cache.Get(key.Request()); err != nil {
		t.Fatal(err)
	}
	if st := chain.Stats()[0]; st.Lookups != 1 {
		t.Errorf("chain consulted %d times, want 1 (second lookup was resident)", st.Lookups)
	}
}

// TestWriteBackCarriesTheTape: under a session a chain's compiled plan is
// saved once, when the first execution has recorded the tape; the next
// session's store stage hands the plan over ready to replay and writes
// nothing; a chain resolved on its own saves before Resolve returns; and a
// frame stored without a tape (an older store, or a plan nothing has run
// yet) is rewritten with one after its first run.
func TestWriteBackCarriesTheTape(t *testing.T) {
	store, err := planstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	chainOver := func() Resolver {
		return Sequential(Optional(Store(store)), WriteBack(Compiler(), store))
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
		s.SetResolver(chainOver())
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
	if tape, _ := stored().Tape(); tape == nil || store.Stats().Saves != 1 {
		t.Fatalf("after the compiling session the store holds a tape: %v, after %d saves; want it saved once, with the tape", tape != nil, store.Stats().Saves)
	}
	if st := run(); st.TapeRecords != 0 || st.TapeLoaded != 1 || st.TapeReplays != 1 {
		t.Fatalf("loading session: %+v; want the tape loaded and replayed, nothing recorded", st)
	}
	if saves := store.Stats().Saves; saves != 1 {
		t.Fatalf("a plan loaded with its tape was written again: %d saves", saves)
	}

	// A chain resolved on its own executes nothing: the bare frame stays.
	other := testKey(7)
	req = other.Request()
	inputs = append(inputs, inputs[0])
	if _, err := chainOver().Resolve(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if tape, _ := stored().Tape(); tape != nil || store.Stats().Saves != 2 {
		t.Fatalf("a chain resolved on its own stored a tape: %v, %d saves", tape != nil, store.Stats().Saves)
	}
	if st := run(); st.TapeRecords != 1 || st.TapeLoaded != 0 {
		t.Fatalf("healing session: %+v; want the bare frame loaded and its tape recorded", st)
	}
	if tape, _ := stored().Tape(); tape == nil || store.Stats().Saves != 3 {
		t.Fatalf("after its first run the bare frame holds a tape: %v, after %d saves; want it rewritten once", tape != nil, store.Stats().Saves)
	}
}

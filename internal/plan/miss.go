package plan

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// The one way a plan is made on a miss: loaded from the attached store when
// it holds the plan, compiled otherwise. Either way the plan is taped where
// it is made (Plan.recordTape, under the lookup's ctx) and what was made is
// saved once, tape included, before the miss returns.

// PlanStore is plan persistence as a miss consumes it: a durable keyed
// collection of encoded plans. The concrete implementation is
// internal/planstore.Store (a content-addressed directory of blobs); the
// interface lives here so the plan subsystem stays free of the persistence
// dependency and tests can substitute in-memory stores.
type PlanStore interface {
	// Load returns the stored plan for key, with ok=false (and no error)
	// when the store has no entry. An error means an entry existed but
	// could not be used (unreadable, corrupt, version-incompatible).
	Load(key Key) (*Plan, bool, error)
	// Save persists a compiled plan, overwriting any entry with the same
	// key.
	Save(p *Plan) error
}

// KeyedStore is a PlanStore that can list what it holds, which is what
// warming a session from a whole store needs.
type KeyedStore interface {
	PlanStore
	Keys() []Key
}

// MissStats is the ledger of a miss path: its store step's loads, its
// compile step's compiles, and the store failures neither lets fail a
// lookup. SaveErrors counts the saves that failed, of a compiled plan or of
// a healed frame, and LastStoreError keeps the newest failed load's or
// save's message ("" while none).
type MissStats struct {
	Store, Compile MissStep
	SaveErrors     int64
	LastStoreError string
}

// MissStep is one step of a miss: Hits + Misses + Errors == Lookups (a
// compile never misses), and Latency is the step's wall time, a heal's
// re-tape and save included in the store's.
type MissStep struct {
	Lookups, Hits, Misses, Errors int64
	Latency                       time.Duration
}

// missPath is what a miss runs over: the store it tries first (nil:
// compile only), its ledger, and storeErr, which hears every store failure
// the miss absorbs — the cache it fills, or a Warm pass.
type missPath struct {
	store    PlanStore
	storeErr func(error)
	mu       sync.Mutex
	st       MissStats
}

// SetStore attaches (or, with nil, detaches) a plan store: misses read
// through it and compiles write through to it, and the miss ledger starts
// over. Call before taking traffic, or concurrently — attachment is atomic
// with respect to lookups.
func (c *Cache) SetStore(ps PlanStore) {
	c.mu.Lock()
	c.miss.Store(&missPath{store: ps, storeErr: c.noteStoreError})
	c.storeErrLogged = false
	c.mu.Unlock()
}

func (m *missPath) stats() MissStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}

// resolve makes the plan for key, reporting whether it came from the
// store. A compile failure is its error whether or not a store is
// attached; a store failure is absorbed.
func (m *missPath) resolve(ctx context.Context, key Key) (*Plan, bool, error) {
	if m.store != nil {
		if p, err := m.load(ctx, key); p != nil || err != nil {
			return p, p != nil, err
		}
	}
	p, err := m.compile(ctx, key)
	if err == nil && m.store != nil {
		m.save(ctx, p)
	}
	return p, false, err
}

// load is the store step. A stored frame without its tape (an earlier
// build's) is taped here and saved again, once. It returns no plan and no
// error when the miss should go on to compile: the store lacks the plan, or
// failed to hand it over.
func (m *missPath) load(ctx context.Context, key Key) (*Plan, error) {
	start := time.Now()
	ctx, sp := obs.Start(ctx, "resolve.store")
	defer sp.End()
	p, ok, err := m.store.Load(key)
	if err != nil {
		m.count(&m.st.Store, sp, start, false, err)
		m.storeFailed(err)
		return nil, nil
	}
	if ok {
		tape := p.Tape()
		sp.SetAttr("tape", tape != nil)
		sp.SetAttr("tape_runs", tape.Runs())
		if tape == nil {
			if err = p.recordTape(ctx); err == nil && p.Tape() != nil {
				m.save(ctx, p)
			}
		}
	}
	// The store handed over a usable frame, so it is the store's hit even
	// when ctx cut its re-tape: that fails the lookup, not the store.
	m.count(&m.st.Store, sp, start, ok, nil)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return p, nil
}

// compile is the compile step: the request is rebuilt from the key (keys
// are canonical, so KeyOf(key.Request()) == key), compiled and taped.
func (m *missPath) compile(ctx context.Context, key Key) (*Plan, error) {
	start := time.Now()
	ctx, sp := obs.Start(ctx, "resolve.compile")
	defer sp.End()
	p, err := Compile(key.Request())
	if err == nil {
		err = p.recordTape(ctx)
	}
	m.count(&m.st.Compile, sp, start, true, err)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// count adds one lookup of step to the ledger — a failure if err is set, a
// hit if hit, a miss otherwise — and says which on its span.
func (m *missPath) count(step *MissStep, sp *obs.Span, start time.Time, hit bool, err error) {
	outcome := "miss"
	m.mu.Lock()
	step.Lookups++
	step.Latency += time.Since(start)
	switch {
	case err != nil:
		step.Errors++
		outcome = "error"
	case hit:
		step.Hits++
		outcome = "hit"
	default:
		step.Misses++
	}
	m.mu.Unlock()
	sp.SetAttr("outcome", outcome)
	sp.SetError(err)
}

// save is the one place a plan is written to a store, under its span. A
// failure is counted and reported, and never fails the lookup.
func (m *missPath) save(ctx context.Context, p *Plan) {
	_, sp := obs.Start(ctx, "planstore.save")
	defer sp.End()
	tape := p.Tape()
	sp.SetAttr("tape_events", tape.Events())
	sp.SetAttr("tape_runs", tape.Runs())
	err := m.store.Save(p)
	sp.SetError(err)
	if err != nil {
		m.mu.Lock()
		m.st.SaveErrors++
		m.mu.Unlock()
		m.storeFailed(err)
	}
}

func (m *missPath) storeFailed(err error) {
	m.mu.Lock()
	m.st.LastStoreError = err.Error()
	m.mu.Unlock()
	m.storeErr(err)
}

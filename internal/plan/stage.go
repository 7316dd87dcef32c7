package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The resolver chain: the one way a Cache misses. A Resolver materialises
// the plan for a key; the stages here consult a plan store or the compiler,
// and Sequential/Optional/WriteBack compose stages into a chain with
// per-stage accounting and mandatory-vs-optional failure semantics, modelled
// on delegated-routing multi-router designs.
//
// The contract every Resolver obeys:
//
//   - success: (*Plan, nil) — the plan for exactly this key;
//   - miss: (nil, ErrNotFound) — the stage is healthy but does not hold
//     the plan, composition moves on to the next stage;
//   - failure: (nil, err) for any other err — the stage broke
//     (unreadable store, corrupt blob, failed compile). Combinators
//     treat a failing stage as mandatory and fail the whole lookup with
//     a *StageError; wrap a stage in Optional to demote its failures to
//     misses, so "store down" degrades to the next stage instead of
//     surfacing a 5xx.
//
// Every stage tracks StageStats with the invariant
// Hits + Misses + Errors == Lookups; combinators aggregate their
// children, so a chain's Stats() slice is the full per-stage hit/miss/
// latency/error breakdown the /metrics endpoint exports, and the store
// fields of CacheStats are a view over it.

// ErrNotFound is the canonical miss: the stage is healthy but does not
// hold (and cannot produce) the plan. Sequential composition interprets
// it as "try the next stage"; any other error is a stage failure.
var ErrNotFound = errors.New("resolve: plan not found")

// StageError is a mandatory stage's failure, carrying which stage broke.
// Optional wrapping prevents these: an Optional stage's failures are
// demoted to misses before composition sees them.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return fmt.Sprintf("resolve: stage %s: %v", e.Stage, e.Err) }
func (e *StageError) Unwrap() error { return e.Err }

// StageStats is one stage's accounting. For leaf stages
// Hits+Misses+Errors == Lookups; combinator entries count their own
// composition-level lookups with the same invariant, followed by their
// children's entries.
type StageStats struct {
	Stage   string        // stage name, unique per position in the chain
	Lookups int64         // total Resolve calls
	Hits    int64         // resolved here (or, for combinators, by a child)
	Misses  int64         // healthy not-found
	Errors  int64         // stage failures (including ctx cancellation)
	Latency time.Duration // cumulative wall time across all lookups
	// SaveErrors counts failed write-backs: of a WriteBack around this
	// stage, or of a store stage rewriting a frame with its tape.
	// Write-back failures never fail a lookup, so without this counter a
	// dying store behind a healthy compiler would be invisible.
	SaveErrors int64
	// LastError is the most recent failure message, of a lookup or of a
	// save ("" while none).
	LastError string
}

// Resolver materialises the plan for a key: the miss path of a Cache (and
// therefore a Session), composed from the stages and combinators below.
type Resolver interface {
	// Name identifies the stage in stats and errors ("store",
	// "compile", "sequential", ...).
	Name() string
	Resolve(ctx context.Context, key Key) (*Plan, error)
	// Stats returns this stage's accounting followed, for combinators,
	// by every descendant's, pre-order.
	Stats() []StageStats
}

// PlanStore is plan persistence as a chain consumes it: a durable keyed
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

// attachment is what the stages of a chain share while something owns the
// chain — a Cache it is the miss path of, or a Warm pass. Owned, a
// write-back leaves the save of a plan whose tape is still open to whoever
// settles it (the plan's first execution, or the owner's flush); and every
// store failure the chain absorbs is also handed to the owner.
type attachment struct {
	storeErr func(error)
}

// attach hands every stage of r that this package built its owner's
// attachment; nil detaches, and the chain saves on its own again.
func attach(r Resolver, a *attachment) {
	if at, ok := r.(interface{ attach(*attachment) }); ok {
		at.attach(a)
	}
}

// meter is the accounting core of a stage. A WriteBack shares the meter of
// the stage it wraps: one entry, one LastError, the newest failure wins.
type meter struct {
	name string
	mu   sync.Mutex
	st   StageStats
	att  atomic.Pointer[attachment]
}

func newMeter(name string) *meter { return &meter{name: name, st: StageStats{Stage: name}} }

func (m *meter) Name() string { return m.name }

func (m *meter) Stats() []StageStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return []StageStats{m.st}
}

func (m *meter) attach(a *attachment) { m.att.Store(a) }
func (m *meter) ownMeter() *meter     { return m }

// observe records one lookup's outcome. A nil err is a hit,
// ErrNotFound a miss, anything else an error — mirroring the Resolver
// contract so the hits+misses+errors=lookups invariant holds by
// construction.
func (m *meter) observe(start time.Time, err error) {
	d := time.Since(start)
	m.mu.Lock()
	m.st.Lookups++
	m.st.Latency += d
	switch {
	case err == nil:
		m.st.Hits++
	case errors.Is(err, ErrNotFound):
		m.st.Misses++
	default:
		m.st.Errors++
		m.st.LastError = err.Error()
	}
	m.mu.Unlock()
}

// storeFailed tells the chain's owner about a store failure the chain
// absorbed.
func (m *meter) storeFailed(err error) {
	if a := m.att.Load(); a != nil {
		a.storeErr(err)
	}
}

func (m *meter) noteSaveError(err error) {
	m.mu.Lock()
	m.st.SaveErrors++
	m.st.LastError = err.Error()
	m.mu.Unlock()
	m.storeFailed(err)
}

type leafStage struct {
	*meter
	span string
	fn   func(ctx context.Context, key Key, sp *obs.Span) (*Plan, error)
}

// Leaf returns a metered stage around fn: every lookup is timed, counted as
// a hit, a miss (ErrNotFound) or an error, and traced as a "resolve.<kind>"
// span — kind being the first word of name — that fn may hang attributes on
// and that closes with the outcome. It is how every stage that materialises
// plans itself is built, and how tests build the stages they substitute.
func Leaf(name string, fn func(ctx context.Context, key Key, sp *obs.Span) (*Plan, error)) Resolver {
	return newLeaf(name, fn)
}

func newLeaf(name string, fn func(ctx context.Context, key Key, sp *obs.Span) (*Plan, error)) *leafStage {
	kind, _, _ := strings.Cut(name, " ")
	return &leafStage{meter: newMeter(name), span: "resolve." + kind, fn: fn}
}

func (s *leafStage) Resolve(ctx context.Context, key Key) (*Plan, error) {
	start := time.Now()
	_, sp := obs.Start(ctx, s.span)
	p, err := s.fn(ctx, key, sp)
	s.observe(start, err)
	switch {
	case err == nil:
		sp.SetAttr("outcome", "hit")
	case errors.Is(err, ErrNotFound):
		sp.SetAttr("outcome", "miss")
	default:
		sp.SetAttr("outcome", "error")
		sp.SetError(err)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Store returns a stage resolving from a durable plan store. A store
// read error (corrupt blob, unreadable dir) is a stage failure, not a
// miss — wrap in Optional to degrade to the next stage. A frame that came
// without its replay tape is rewritten once the plan has recorded one.
func Store(ps PlanStore) Resolver {
	var s *leafStage
	s = newLeaf("store", func(_ context.Context, key Key, sp *obs.Span) (*Plan, error) {
		p, ok, err := ps.Load(key)
		switch {
		case err != nil:
			s.storeFailed(err)
			return nil, err
		case !ok:
			return nil, ErrNotFound
		}
		tape, _ := p.Tape()
		sp.SetAttr("tape", tape != nil)
		sp.SetAttr("tape_runs", tape.Runs())
		p.claim(ps, true, s.noteSaveError)
		return p, nil
	})
	return s
}

// Compiler returns the last-resort stage: it reconstructs the compile
// request from the key (keys are canonical, so KeyOf(key.Request()) ==
// key) and compiles. It never misses — every outcome is a hit or a
// compile failure — so it terminates any sequential chain, and alone it is
// the chain of a cache nothing is attached to.
func Compiler() Resolver {
	return newLeaf("compile", func(_ context.Context, key Key, _ *obs.Span) (*Plan, error) {
		return Compile(key.Request())
	})
}

type writeBackStage struct {
	inner Resolver
	ps    PlanStore
	m     *meter // the inner stage's own, when this package built it
	own   bool   // m is this stage's: inner came from elsewhere
}

// WriteBack decorates a stage so its successes are saved to ps — the
// write-back that makes processes sharing a store converge to zero
// recompiles: a plan one of them had to compile lands in the store for
// every other to resolve cheaply. A stored frame carries
// the plan's replay tape, so when the save is made depends on who runs the
// chain (writeback.go): resolved on its own, the plan is saved before
// Resolve returns, and once more if a tape lands later; as the miss path of
// a Cache, a plan whose tape is still open is saved once, by the execution
// that settles it or by the entry point that flushes it. Save failures are
// counted in the wrapped stage's SaveErrors, never failing the lookup.
func WriteBack(inner Resolver, ps PlanStore) Resolver {
	s := &writeBackStage{inner: inner, ps: ps}
	if m, ok := inner.(interface{ ownMeter() *meter }); ok {
		s.m = m.ownMeter()
	} else {
		s.m, s.own = newMeter(inner.Name()), true
	}
	return s
}

func (s *writeBackStage) Name() string     { return s.inner.Name() }
func (s *writeBackStage) ownMeter() *meter { return s.m }

func (s *writeBackStage) attach(a *attachment) {
	s.m.attach(a)
	attach(s.inner, a)
}

func (s *writeBackStage) Resolve(ctx context.Context, key Key) (*Plan, error) {
	p, err := s.inner.Resolve(ctx, key)
	if err == nil {
		p.claim(s.ps, false, s.m.noteSaveError)
		if s.m.att.Load() == nil || p.replay.settled() {
			p.settle(ctx)
		}
	}
	return p, err
}

// Stats is the wrapped stage's: the save errors land in its entry.
func (s *writeBackStage) Stats() []StageStats {
	if s.own {
		return append(s.inner.Stats(), s.m.Stats()...)
	}
	return s.inner.Stats()
}

type optionalStage struct {
	inner Resolver
}

// Optional demotes a stage's failures to misses: an unreadable or
// corrupt store entry reads as "not found here" and composition moves
// on, instead of failing the lookup. The inner stage's own stats still
// record the failure as an error, so degradation stays observable.
func Optional(inner Resolver) Resolver { return &optionalStage{inner: inner} }

func (s *optionalStage) Name() string         { return s.inner.Name() }
func (s *optionalStage) Stats() []StageStats  { return s.inner.Stats() }
func (s *optionalStage) attach(a *attachment) { attach(s.inner, a) }

func (s *optionalStage) Resolve(ctx context.Context, key Key) (*Plan, error) {
	p, err := s.inner.Resolve(ctx, key)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return nil, ErrNotFound
	}
	return p, err
}

// storeChain is what attaching a bare store means: the store first, its
// failures degraded to misses, then the compiler with write-back.
func storeChain(ps PlanStore) Resolver {
	return Sequential(Optional(Store(ps)), WriteBack(Compiler(), ps))
}

// SetStore attaches (or, with nil, detaches) a plan store: misses read
// through it and compiles write through to it. It is SetResolver with the
// store-then-compile chain.
func (c *Cache) SetStore(ps PlanStore) {
	if ps == nil {
		c.SetResolver(nil)
		return
	}
	c.SetResolver(storeChain(ps))
}

// storeView is the store side of a chain's accounting as CacheStats reports
// it: plans the store stages served, and the store operations that failed —
// loads, and saves wherever a write-back counted them.
func storeView(stages []StageStats) (hits, errs int64) {
	for _, st := range stages {
		if st.Stage == "store" {
			hits += st.Hits
			errs += st.Errors
		}
		errs += st.SaveErrors
	}
	return hits, errs
}

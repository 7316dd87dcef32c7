// Package resolve generalises plan-cache filling into a composable
// resolver chain, modelled on delegated-routing multi-router designs:
// a Resolver materialises the plan for a key, concrete stages consult
// memory, disk, a remote peer, or the compiler, and Sequential/Parallel
// combinators compose stages into a chain with per-stage accounting and
// mandatory-vs-optional failure semantics.
//
// The contract every Resolver obeys:
//
//   - success: (*Plan, nil) — the plan for exactly this key;
//   - miss: (nil, ErrNotFound) — the stage is healthy but does not hold
//     the plan, composition moves on to the next stage;
//   - failure: (nil, err) for any other err — the stage broke
//     (unreachable peer, corrupt blob, failed compile). Combinators
//     treat a failing stage as mandatory and fail the whole lookup with
//     a *StageError; wrap a stage in Optional to demote its failures to
//     misses, so "peer down" degrades to the next stage instead of
//     surfacing a 5xx.
//
// Every stage tracks Stats with the invariant
// Hits + Misses + Errors == Lookups; combinators aggregate their
// children, so a chain's Stats() slice is the full per-stage hit/miss/
// latency/error breakdown the /metrics endpoint exports.
package resolve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
)

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

// Stats is one stage's accounting. For leaf stages
// Hits+Misses+Errors == Lookups; combinator entries count their own
// composition-level lookups with the same invariant, followed by their
// children's entries.
type Stats struct {
	Stage   string        // stage name, unique per position in the chain
	Lookups int64         // total Resolve calls
	Hits    int64         // resolved here (or, for combinators, by a child)
	Misses  int64         // healthy not-found
	Errors  int64         // stage failures (including ctx cancellation)
	Latency time.Duration // cumulative wall time across all lookups
	// SaveErrors counts failed write-backs (WriteBack stages only).
	// Write-back failures never fail a lookup, so without this counter a
	// dying store behind a healthy compiler would be invisible.
	SaveErrors int64
	// LastError is the most recent failure message ("" while none).
	LastError string
}

// Resolver materialises the plan for a key. It extends the minimal
// plan.Resolver with a name and per-stage accounting; every Resolver in
// this package also satisfies plan.Resolver, so a composed chain plugs
// straight into plan.Cache.SetResolver.
type Resolver interface {
	// Name identifies the stage in stats and errors ("memory", "store",
	// "peer <url>", "sequential", ...).
	Name() string
	Resolve(ctx context.Context, key plan.Key) (*plan.Plan, error)
	// Stats returns this stage's accounting followed, for combinators,
	// by every descendant's, pre-order.
	Stats() []Stats
}

// meter is the shared accounting core embedded by every stage.
type meter struct {
	name string
	mu   sync.Mutex
	st   Stats
}

func newMeter(name string) meter { return meter{name: name, st: Stats{Stage: name}} }

func (m *meter) Name() string { return m.name }

func (m *meter) Stats() []Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return []Stats{m.st}
}

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

func (m *meter) noteSaveError(err error) {
	m.mu.Lock()
	m.st.SaveErrors++
	m.st.LastError = err.Error()
	m.mu.Unlock()
}

// span opens a "resolve.<stage>" trace span for one lookup; outcome
// closes it, recording hit/miss/error the same way observe classifies
// them. Both are no-ops without a live trace in ctx.
func (m *meter) span(ctx context.Context) *obs.Span {
	_, s := obs.Start(ctx, "resolve."+m.name)
	return s
}

func outcome(s *obs.Span, err error) {
	switch {
	case err == nil:
		s.SetAttr("outcome", "hit")
	case errors.Is(err, ErrNotFound):
		s.SetAttr("outcome", "miss")
	default:
		s.SetAttr("outcome", "error")
		s.SetError(err)
	}
	s.End()
}

// memoryStage consults a plan.Cache's residency: a hit refreshes
// recency, a miss never triggers the cache's own fill.
type memoryStage struct {
	meter
	cache *plan.Cache
}

// Memory returns a stage resolving from a cache's resident plans.
// Chains attached to that same cache via SetResolver do NOT need this
// stage — the cache checks residency before invoking the chain — it
// exists for standalone chains and for fronting someone else's cache.
func Memory(c *plan.Cache) Resolver {
	return &memoryStage{meter: newMeter("memory"), cache: c}
}

func (s *memoryStage) Resolve(ctx context.Context, key plan.Key) (*plan.Plan, error) {
	start := time.Now()
	sp := s.span(ctx)
	p, ok := s.cache.Lookup(key)
	var err error
	if !ok {
		err = ErrNotFound
	}
	s.observe(start, err)
	outcome(sp, err)
	return p, err
}

// PlanStore is the store surface the disk stage consumes — satisfied by
// *planstore.Store and by in-memory test stores alike (it is
// plan.PlanStore minus Keys, which resolution never needs).
type PlanStore interface {
	Load(key plan.Key) (*plan.Plan, bool, error)
	Save(p *plan.Plan) error
}

type storeStage struct {
	meter
	ps PlanStore
}

// Store returns a stage resolving from a durable plan store. A store
// read error (corrupt blob, unreadable dir) is a stage failure, not a
// miss — wrap in Optional to keep today's degrade-to-compile behaviour.
func Store(ps PlanStore) Resolver {
	return &storeStage{meter: newMeter("store"), ps: ps}
}

func (s *storeStage) Resolve(ctx context.Context, key plan.Key) (*plan.Plan, error) {
	start := time.Now()
	sp := s.span(ctx)
	p, ok, err := s.ps.Load(key)
	if err == nil && !ok {
		err = ErrNotFound
	}
	s.observe(start, err)
	if err == nil {
		tape, _ := p.Tape()
		sp.SetAttr("tape", tape != nil)
		// A frame stored without its replay tape is rewritten once the plan
		// has recorded one (nothing is saved before that: no error here).
		plan.WriteBack(ctx, p, s.ps, true, s.noteSaveError)
	}
	outcome(sp, err)
	if err != nil {
		return nil, err
	}
	return p, nil
}

type compilerStage struct {
	meter
}

// Compiler returns the last-resort stage: it reconstructs the compile
// request from the key (keys are canonical, so KeyOf(key.Request()) ==
// key) and compiles. It never misses — every outcome is a hit or a
// compile failure — so it terminates any sequential chain.
func Compiler() Resolver {
	return &compilerStage{meter: newMeter("compile")}
}

func (s *compilerStage) Resolve(ctx context.Context, key plan.Key) (*plan.Plan, error) {
	start := time.Now()
	sp := s.span(ctx)
	p, err := plan.Compile(key.Request())
	s.observe(start, err)
	outcome(sp, err)
	return p, err
}

type writeBackStage struct {
	inner Resolver
	ps    PlanStore
	m     *meter // aggregates save errors onto the inner stage's name
}

// WriteBack decorates a stage so its successes are saved to ps — the
// write-back that makes a fleet converge to zero recompiles: a plan a
// worker had to compile (or fetched from a peer) lands in the shared
// store for every other worker to resolve cheaply. The save is made
// before Resolve returns (plan.WriteBack), and made again when the plan's
// first execution has recorded its replay tape, so the frame the store
// ends up with carries it. Save failures are absorbed into the stage's
// SaveErrors counter, never failing the lookup.
func WriteBack(inner Resolver, ps PlanStore) Resolver {
	return &writeBackStage{inner: inner, ps: ps, m: &meter{name: inner.Name()}}
}

func (s *writeBackStage) Name() string { return s.inner.Name() }

func (s *writeBackStage) Resolve(ctx context.Context, key plan.Key) (*plan.Plan, error) {
	p, err := s.inner.Resolve(ctx, key)
	if err == nil {
		if serr := plan.WriteBack(ctx, p, s.ps, false, s.m.noteSaveError); serr != nil {
			s.m.noteSaveError(serr)
		}
	}
	return p, err
}

// Stats merges the write-back accounting into the inner stage's entry,
// so "compile" shows its own hits plus the saves that failed behind it.
func (s *writeBackStage) Stats() []Stats {
	out := s.inner.Stats()
	s.m.mu.Lock()
	if len(out) > 0 {
		out[0].SaveErrors += s.m.st.SaveErrors
		if out[0].LastError == "" {
			out[0].LastError = s.m.st.LastError
		}
	}
	s.m.mu.Unlock()
	return out
}

type optionalStage struct {
	inner Resolver
}

// Optional demotes a stage's failures to misses: an unreachable peer or
// corrupt store entry reads as "not found here" and composition moves
// on, instead of failing the lookup. The inner stage's own stats still
// record the failure as an error, so degradation stays observable.
func Optional(inner Resolver) Resolver { return &optionalStage{inner: inner} }

func (s *optionalStage) Name() string   { return s.inner.Name() }
func (s *optionalStage) Stats() []Stats { return s.inner.Stats() }

func (s *optionalStage) Resolve(ctx context.Context, key plan.Key) (*plan.Plan, error) {
	p, err := s.inner.Resolve(ctx, key)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return nil, ErrNotFound
	}
	return p, err
}

type flight struct {
	done chan struct{}
	p    *plan.Plan
	err  error
}

type singleflightStage struct {
	meter
	inner Resolver
	mu    sync.Mutex
	calls map[plan.Key]*flight
}

// Singleflight coalesces concurrent lookups for the same key onto one
// inner resolution: ten workers missing on the same shape at once cost
// one peer fetch (or one compile), not ten. The leader's outcome counts
// once in the inner stage's stats; joiners count as hits here (they
// were satisfied without new work) unless the shared resolution failed.
// A chain attached to plan.Cache already gets this from the cache's own
// in-flight coalescing; Singleflight matters for standalone chains and
// for fan-in fronts.
func Singleflight(inner Resolver) Resolver {
	return &singleflightStage{
		meter: newMeter("singleflight(" + inner.Name() + ")"),
		inner: inner,
		calls: make(map[plan.Key]*flight),
	}
}

func (s *singleflightStage) Resolve(ctx context.Context, key plan.Key) (*plan.Plan, error) {
	start := time.Now()
	s.mu.Lock()
	if fl, ok := s.calls[key]; ok {
		s.mu.Unlock()
		<-fl.done
		s.observe(start, fl.err)
		return fl.p, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	s.calls[key] = fl
	s.mu.Unlock()

	fl.p, fl.err = s.inner.Resolve(ctx, key)

	s.mu.Lock()
	delete(s.calls, key)
	s.mu.Unlock()
	close(fl.done)
	s.observe(start, fl.err)
	return fl.p, fl.err
}

// Stats returns the coalescing layer's entry followed by the inner
// stage's: comparing the two Lookups counts is the dedup ratio.
func (s *singleflightStage) Stats() []Stats {
	out := s.meter.Stats()
	return append(out, s.inner.Stats()...)
}

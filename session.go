package wse

// Session is the compiled-plan executor: the paper's model-driven
// deployment (§5.5) turned into a serving engine. The package-level Run
// re-derives the reduction tree, re-lowers it to a fabric program and
// re-validates it on every call; a Session does that work once per
// distinct collective shape, keeps the lowered plan in a content-keyed
// LRU cache, and replays it for every subsequent call — cold-path
// compile once, hot-path replay many. Sessions are safe for
// concurrent use: independent collectives run in parallel on a bounded
// worker pool, fronted by a multi-tenant QoS scheduler — WithTenant
// serves callers under weighted-fair shares and strict priority classes,
// with per-tenant admission control and accounting (SchedStats).

import (
	"context"
	"fmt"

	"repro/internal/plan"
	"repro/internal/sched"
)

// SessionConfig tunes a Session; the zero value is usable.
type SessionConfig struct {
	// Options parameterise the simulated fabric for every collective the
	// session runs; the zero value models the WSE-2. Options.Shards
	// selects the sharded engine for every replay (left at zero it
	// auto-tunes from GOMAXPROCS per fabric size, bit-identically);
	// Options.MaxCycles left at zero selects DefaultSessionMaxCycles
	// rather than the simulator's near-unbounded default, so a stuck
	// replay fails fast with a stall diagnostic instead of spinning for
	// hours.
	Options Options
	// PlanCacheCapacity bounds the number of compiled plans kept resident
	// (<= 0 selects the default of 128). Distinct shapes beyond the
	// capacity evict the least recently used plan.
	PlanCacheCapacity int
	// Workers bounds the number of concurrently executing fabric
	// simulations (<= 0 selects GOMAXPROCS).
	Workers int
	// Store, when non-nil, attaches a plan store in write-through mode:
	// cache misses first try to decode the stored plan (no compile), and
	// plans the session does compile are persisted back, so sessions over
	// one store compile each distinct shape once between them, not once per
	// process. It is a preset over Resolver — the chain
	// Sequential(Optional(Store(s)), WriteBack(Compiler(), s)) — so store
	// failures never fail a request (the session falls back to compiling)
	// and are counted in PlanStats.StoreErrors, and a compiled plan is
	// written once, when its first run has recorded the replay tape the
	// frame carries (README "Plan persistence").
	Store *PlanStore
	// Resolver, when non-nil, is the session's plan miss path: a chain
	// composed from internal/resolve's stages (through the wse.Resolver
	// alias), in whatever composition the caller built. PlanStats' store
	// fields read its stages. It takes precedence over Store: with both
	// set, the chain owns every miss.
	Resolver Resolver
	// Scheduler tunes the multi-tenant QoS layer in front of the worker
	// pool; the zero value serves everything as one weight-1 Batch tenant
	// with the default queue bound.
	Scheduler SchedulerConfig
}

// SchedulerConfig tunes the session's multi-tenant request scheduler.
type SchedulerConfig struct {
	// DefaultTenant is the TenantConfig applied to the default tenant and
	// to any tenant name first seen on a request rather than registered
	// via WithTenant.
	DefaultTenant TenantConfig
}

// TenantConfig sets a tenant's share of the session's worker pool: its
// weighted-fair Weight, its strict Priority class, and its admission
// bound MaxQueue (queued requests beyond it are rejected with
// ErrOverloaded instead of waiting without bound).
type TenantConfig = sched.TenantConfig

// Priority is a strict dispatch class: every queued Interactive request
// runs before any Batch request, and Batch before Background. The zero
// value is Batch.
type Priority = sched.Priority

// The priority classes, in dispatch order.
const (
	Interactive = sched.Interactive
	Batch       = sched.Batch
	Background  = sched.Background
)

// SchedStats is the scheduler's accounting: per-tenant served/rejected/
// cancelled counts and queue-wait/execution latency quantiles, plus the
// worker pool's backpressure metrics (queue depth, saturation time).
// Per-tenant counters balance: Submitted = Served + Rejected + Cancelled.
type SchedStats = sched.Stats

// TenantStats is one tenant's slice of SchedStats.
type TenantStats = sched.TenantStats

// PoolStats is the worker-pool backpressure slice of SchedStats.
type PoolStats = sched.PoolStats

// ErrOverloaded is returned — immediately, never after queueing — when a
// request arrives while its tenant's queue is at the MaxQueue bound.
var ErrOverloaded = sched.ErrOverloaded

// ErrSessionClosed is returned by requests submitted after Close.
var ErrSessionClosed = sched.ErrClosed

// ErrTenantRemoved is returned by requests that were still queued when
// Session.RemoveTenant deleted their tenant.
var ErrTenantRemoved = sched.ErrTenantRemoved

// ErrInternal is returned when a request panicked inside a worker. The
// panic is recovered — the session, its worker pool and every other
// in-flight request are unaffected — and the error (a *sched.PanicError
// under errors.As) carries a sanitized stack of the panic site.
var ErrInternal = sched.ErrPanic

// ErrDeadline is returned when a request's context deadline expires —
// while queued (the request is shed before ever executing) or mid-replay
// (the fabric watchdog aborts the simulation). It matches both this
// sentinel and context.DeadlineExceeded under errors.Is.
var ErrDeadline = sched.ErrDeadline

// DefaultSessionMaxCycles is the per-run cycle cap a Session applies when
// its Options leave MaxCycles at zero. The bare simulator defaults to
// 2^34 cycles — days of wall-clock for a large sharded run gone wrong —
// which is the right generosity for one-shot experiments but not for a
// serving loop. 2^28 cycles is ~100× the largest legitimate run of the
// experiment suite (a full-wafer Star at 16 KB) yet fails a wedged replay
// within seconds, with the engine's blocked-PE diagnostic attached.
const DefaultSessionMaxCycles = 1 << 28

// PlanStats is the plan cache accounting: hits, misses, evictions and
// resident plan count, and what the cached plans did with their replay
// tapes (TapeRecords, TapeLoaded, TapeReplays, TapeDeclined; README "Replay
// tape").
type PlanStats = plan.CacheStats

// Session executes collectives against cached compiled plans.
type Session struct {
	opt Options
	s   *plan.Session
	def Tenant // the default-tenant handle the Session's own methods serve under
}

// NewSession creates a session. The zero SessionConfig models the WSE-2
// with the default cache capacity and one worker per CPU. A session that
// has served requests owns that many worker goroutines until Close; a
// session that never serves (e.g. a staging session used only to Warm a
// store) starts none and needs no Close.
func NewSession(cfg SessionConfig) *Session {
	if cfg.Options.MaxCycles == 0 {
		cfg.Options.MaxCycles = DefaultSessionMaxCycles
	}
	s := &Session{
		opt: cfg.Options,
		s: plan.NewSessionSched(cfg.PlanCacheCapacity, sched.Config{
			Workers:       cfg.Workers,
			DefaultTenant: cfg.Scheduler.DefaultTenant,
		}),
	}
	switch {
	case cfg.Resolver != nil:
		s.s.SetResolver(cfg.Resolver)
	case cfg.Store != nil:
		s.s.SetStore(cfg.Store)
	}
	s.def = Tenant{s: s} // empty name: the scheduler's default tenant
	return s
}

// PlanStats snapshots the session's plan-cache accounting.
func (s *Session) PlanStats() PlanStats { return s.s.Stats() }

// SchedStats snapshots the session's scheduler accounting: per-tenant
// counts and latency quantiles, and pool backpressure.
func (s *Session) SchedStats() SchedStats { return s.s.SchedStats() }

// Close stops admission, drains queued requests, waits for running ones
// and releases the worker pool. Requests after Close are rejected with
// ErrSessionClosed. Sessions that live for the whole process need not be
// closed.
func (s *Session) Close() error { return s.s.Close() }

// WithTenant registers (or live-reconfigures) a tenant and returns a
// handle that serves collectives under that tenant's QoS: weighted-fair
// dispatch against the other tenants of its priority class, strict
// precedence over lower classes, and per-tenant admission control and
// accounting. Handles are safe for concurrent use and share the
// session's plan cache — tenancy is a scheduling identity, not a cache
// partition.
//
// Each distinct name holds its queue, latency sketches and accounting
// (a few KB) until RemoveTenant releases them; dispatch scans the
// tenant set, so very large dynamic tenant populations should recycle
// names they are done with.
func (s *Session) WithTenant(name string, cfg TenantConfig) *Tenant {
	s.s.SetTenant(name, cfg)
	return &Tenant{s: s, name: name}
}

// RemoveTenant deletes a tenant and releases everything its name held:
// queue, latency sketches, accounting. Requests still queued under it
// fail immediately with ErrTenantRemoved; running ones complete. The
// name is free for reuse afterwards — existing handles still work but
// resubmit under a fresh default-config tenant. It reports whether the
// tenant existed. This is the lifecycle half of per-user tenancy: serve
// a user under their own name, remove the name when they go idle.
func (s *Session) RemoveTenant(name string) bool { return s.s.RemoveTenant(name) }

// Tenant serves collectives on its Session under one tenant's QoS. Its
// verbs are the Session's: cancelling a call's context unqueues a request
// still waiting for a worker (returning ctx.Err() immediately) or
// abandons a running one, which the accounting then counts as cancelled
// rather than served.
type Tenant struct {
	s    *Session
	name string
}

// Name returns the tenant name the handle submits under.
func (t *Tenant) Name() string { return t.name }

// call resolves per-call options against the session's configuration:
// absent a WithOptions the session's Options apply; an explicit
// WithOptions replaces them for this call (compiling and caching a plan
// under the overridden options) with the session's MaxCycles default
// still applied.
func (s *Session) call(opts []Option) callOpts {
	c := resolveOpts(opts)
	if !c.optSet {
		c.opt = s.opt
	} else if c.opt.MaxCycles == 0 {
		c.opt.MaxCycles = DefaultSessionMaxCycles
	}
	return c
}

// Run serves any collective named by a Shape under the tenant's QoS. The
// plan is compiled on the first call for a shape and replayed from the
// session's cache afterwards. Cancelling ctx unqueues a request still
// waiting for a worker (returning ctx.Err() immediately) or abandons a
// running one, which the accounting counts as cancelled rather than served.
func (t *Tenant) Run(ctx context.Context, sh Shape, inputs [][]float32, opts ...Option) (*Report, error) {
	c := t.s.call(opts)
	if err := sh.checkRun(inputs); err != nil {
		return nil, err
	}
	return t.s.s.SubmitOpts(ctx, t.name, sh.request(c.opt), inputs, c.execOpts())
}

// Submit is Run returning immediately with a Future. Admission control
// runs synchronously — an overloaded tenant or closed session comes back
// as an already-resolved Future — and the replay is then scheduled under
// the tenant's QoS like any blocking Run.
func (t *Tenant) Submit(ctx context.Context, sh Shape, inputs [][]float32, opts ...Option) *Future {
	c := t.s.call(opts)
	if err := sh.checkRun(inputs); err != nil {
		return plan.Fail(err)
	}
	return t.s.s.SubmitAsync(ctx, t.name, sh.request(c.opt), inputs, c.execOpts())
}

// RunBatch replays one Shape across every entry of batches (batches[i]
// is one Run's worth of inputs) as a single scheduled request: one queue
// slot, one plan acquisition, at most one simulator run (the recording;
// every entry then walks the replay tape) — so the per-run fixed cost of
// binding inputs and assembling results is amortised batch-wide. Reports
// come back in batch order. Combine with WithColumnarResult to skip the
// per-run result maps as well.
func (t *Tenant) RunBatch(ctx context.Context, sh Shape, batches [][][]float32, opts ...Option) ([]*Report, error) {
	c := t.s.call(opts)
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	for i, inputs := range batches {
		if err := sh.checkInputs(inputs); err != nil {
			return nil, fmt.Errorf("batch entry %d: %w", i, err)
		}
	}
	return t.s.s.SubmitBatch(ctx, t.name, sh.request(c.opt), batches, c.execOpts())
}

// Predict returns the model estimate for sh under the session's Options
// (or an explicit WithOptions).
func (t *Tenant) Predict(sh Shape, opts ...Option) float64 { return t.s.Predict(sh, opts...) }

// Bound returns the runtime lower bound for sh under the session's
// Options (or an explicit WithOptions).
func (t *Tenant) Bound(sh Shape, opts ...Option) float64 { return t.s.Bound(sh, opts...) }

// Run is the session-level counterpart of Tenant.Run: it serves any
// collective named by a Shape under the default tenant.
func (s *Session) Run(ctx context.Context, sh Shape, inputs [][]float32, opts ...Option) (*Report, error) {
	return s.def.Run(ctx, sh, inputs, opts...)
}

// Submit is the session-level counterpart of Tenant.Submit.
func (s *Session) Submit(ctx context.Context, sh Shape, inputs [][]float32, opts ...Option) *Future {
	return s.def.Submit(ctx, sh, inputs, opts...)
}

// RunBatch is the session-level counterpart of Tenant.RunBatch.
func (s *Session) RunBatch(ctx context.Context, sh Shape, batches [][][]float32, opts ...Option) ([]*Report, error) {
	return s.def.RunBatch(ctx, sh, batches, opts...)
}

// Predict returns the model estimate for sh under the session's Options
// (or an explicit WithOptions).
func (s *Session) Predict(sh Shape, opts ...Option) float64 {
	return Predict(sh, WithOptions(s.call(opts).opt))
}

// Bound returns the runtime lower bound for sh under the session's
// Options (or an explicit WithOptions).
func (s *Session) Bound(sh Shape, opts ...Option) float64 {
	return Bound(sh, WithOptions(s.call(opts).opt))
}

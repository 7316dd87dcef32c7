package plan

import (
	"context"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Session is the serving-shaped executor over the plan cache: requests
// are compiled once (cold path), then replayed from the cache (hot path),
// with concurrent fabric simulations bounded by a worker pool. A Session
// is safe for use from many goroutines.
//
// The worker pool is fronted by a multi-tenant QoS scheduler
// (internal/sched): every replay is submitted under a tenant name and
// dispatched by weighted-fair scheduling within strict priority classes,
// with per-tenant admission control — a heavy tenant saturating the pool
// is rejected (sched.ErrOverloaded) rather than allowed to queue without
// bound, and never starves a latency-sensitive Interactive tenant.
// Run/RunContext are the single-tenant face of the same path: they
// submit under the default tenant.
type Session struct {
	cache *Cache
	sch   *sched.Scheduler
}

// NewSession returns a session with the given plan-cache capacity and
// worker-pool size (<= 0 selects DefaultCacheCapacity and GOMAXPROCS),
// with every request served under the default tenant config.
func NewSession(cacheCapacity, workers int) *Session {
	return NewSessionSched(cacheCapacity, sched.Config{Workers: workers})
}

// NewSessionSched returns a session whose worker pool runs under the
// given scheduler config (worker count, default tenant QoS).
func NewSessionSched(cacheCapacity int, cfg sched.Config) *Session {
	return &Session{
		cache: NewCache(cacheCapacity),
		sch:   sched.New(cfg),
	}
}

// Plan returns the compiled plan for req, from cache when resident.
// Compilation does not occupy a worker slot: cold-path plan construction
// and hot-path simulation contend for different resources.
func (s *Session) Plan(req Request) (*Plan, error) {
	return s.cache.Get(req)
}

// Run compiles (or fetches) the plan for req and replays it with the
// given inputs under a worker slot, as the default tenant.
func (s *Session) Run(req Request, inputs [][]float32) (*core.Report, error) {
	return s.Submit(context.Background(), "", req, inputs)
}

// Submit compiles (or fetches) the plan for req and replays it with the
// given inputs under the named tenant's QoS ("" selects the default
// tenant). Plan acquisition happens in the caller's goroutine — compiles
// never occupy a worker slot — then the replay is queued under the
// tenant and dispatched by the scheduler. Submit returns the replay's
// report, or sched.ErrOverloaded when the tenant's queue is full,
// sched.ErrClosed after Close, or ctx.Err() when the context fires while
// the request is queued or running.
//
// Admission is checked before plan acquisition: a request that would
// only be turned away (overloaded tenant, closed session, dead context)
// is rejected without compiling anything or touching the shared plan
// cache, so a flooding tenant cannot burn compile cycles or evict other
// tenants' hot plans with requests that never run.
func (s *Session) Submit(ctx context.Context, tenant string, req Request, inputs [][]float32) (*core.Report, error) {
	return s.SubmitOpts(ctx, tenant, req, inputs, ExecOptions{})
}

// SubmitOpts is Submit with per-replay execution options (columnar
// result assembly).
func (s *Session) SubmitOpts(ctx context.Context, tenant string, req Request, inputs [][]float32, eo ExecOptions) (*core.Report, error) {
	if err := s.sch.Admit(ctx, tenant); err != nil {
		return nil, err
	}
	return s.submitAdmitted(ctx, tenant, req, inputs, eo)
}

// submitAdmitted is the tail of SubmitOpts after the admission
// pre-check: plan acquisition in the caller's goroutine, then the
// scheduled replay (whose Submit re-runs the authoritative queue-time
// admission check).
func (s *Session) submitAdmitted(ctx context.Context, tenant string, req Request, inputs [][]float32, eo ExecOptions) (*core.Report, error) {
	p, err := s.resolve(ctx, req)
	if err != nil {
		return nil, err
	}
	var rep *core.Report
	// The worker hands the submitter's ctx to the replay, where it becomes
	// the fabric watchdog: a deadline firing mid-simulation aborts the run
	// (typed sched.ErrDeadline) instead of spinning to MaxCycles.
	if err := s.sch.Submit(ctx, tenant, func(c context.Context) error {
		r, e := p.ExecuteCtx(c, inputs, eo)
		rep = r
		return e
	}); err != nil {
		p.settle(ctx)
		return nil, err
	}
	return rep, nil
}

// resolve is the plan acquisition of a request that executes next: a miss
// under it leaves its store write to that execution (writeback.go). A caller
// whose execution then fails to happen settles the plan itself.
func (s *Session) resolve(ctx context.Context, req Request) (*Plan, error) {
	rctx, rspan := obs.Start(ctx, "plan.resolve")
	p, _, err := s.cache.lookup(rctx, req)
	rspan.SetError(err)
	rspan.End()
	return p, err
}

// SubmitAsync is Submit that returns immediately with a future instead
// of blocking. Admission is checked synchronously — an overloaded tenant
// or closed session comes back as an already-resolved Async, so async
// callers shed load exactly as fast as blocking ones — then plan
// acquisition and the scheduled replay proceed on their own goroutine.
// Cancelling ctx while the request is queued or running resolves the
// future with ctx.Err() under the scheduler's usual accounting.
func (s *Session) SubmitAsync(ctx context.Context, tenant string, req Request, inputs [][]float32, eo ExecOptions) *Async {
	if err := s.sch.Admit(ctx, tenant); err != nil {
		return Fail(err)
	}
	return Go(func() (*core.Report, error) {
		return s.submitAdmitted(ctx, tenant, req, inputs, eo)
	})
}

// SubmitBatch compiles (or fetches) the plan for req once and replays it
// across every entry of batches as a single scheduled request: one queue
// slot, one dispatch, at most one simulator run (see Plan.ExecuteBatch).
// The whole batch is one unit of scheduling — QoS weight accounting sees
// one request. Cancelling ctx mid-batch returns
// immediately; the worker finishes the replay in flight, observes the
// cancellation at the next entry boundary and abandons the rest of the
// batch, so a cancelled batch does not pin a worker for its full length.
func (s *Session) SubmitBatch(ctx context.Context, tenant string, req Request, batches [][][]float32, eo ExecOptions) ([]*core.Report, error) {
	if err := s.sch.Admit(ctx, tenant); err != nil {
		return nil, err
	}
	p, err := s.resolve(ctx, req)
	if err != nil {
		return nil, err
	}
	var reps []*core.Report
	if err := s.sch.Submit(ctx, tenant, func(c context.Context) error {
		r, e := p.ExecuteBatch(c, batches, eo)
		reps = r
		return e
	}); err != nil {
		p.settle(ctx)
		return nil, err
	}
	return reps, nil
}

// SetTenant registers (or live-reconfigures) a tenant's weight, priority
// class and queue bound.
func (s *Session) SetTenant(name string, cfg sched.TenantConfig) { s.sch.SetTenant(name, cfg) }

// RemoveTenant deletes a tenant from the scheduler, releasing its queue,
// latency sketches and accounting; still-queued requests fail with
// sched.ErrTenantRemoved. It reports whether the tenant existed.
func (s *Session) RemoveTenant(name string) bool { return s.sch.RemoveTenant(name) }

// Stats snapshots the plan-cache accounting.
func (s *Session) Stats() CacheStats { return s.cache.Stats() }

// SchedStats snapshots the scheduler's per-tenant accounting (served/
// rejected/cancelled counts, queue-wait and execution latency quantiles)
// and the worker pool's backpressure metrics.
func (s *Session) SchedStats() sched.Stats { return s.sch.Stats() }

// Workers returns the worker-pool size.
func (s *Session) Workers() int { return s.sch.Workers() }

// Close stops admission, drains queued replays, waits for running ones
// and releases the worker pool. Submissions after Close return
// sched.ErrClosed.
func (s *Session) Close() error { return s.sch.Close() }

// SetStore attaches a plan store to the session's cache: misses read
// through it and compiles write through to it (Cache.SetStore). Call before
// taking traffic, or concurrently — attachment is atomic with respect to
// lookups.
func (s *Session) SetStore(ps PlanStore) { s.cache.SetStore(ps) }

// SetResolver attaches a resolver chain as the cache's miss path. See
// Cache.SetResolver.
func (s *Session) SetResolver(r Resolver) { s.cache.SetResolver(r) }

// Resolver returns the cache's miss path: the chain SetResolver or
// SetStore attached, or the bare compiler.
func (s *Session) Resolver() Resolver { return s.cache.resolverHandle() }

// Prefetch materialises the plan for req into the cache ahead of
// traffic, through the attached resolver chain, so the first real request
// pays no compile (and, when the plan arrived with its tape, no simulator
// run). Like Warm it stays out of the hit/miss accounting, coalesces
// with in-flight fills and saves what the chain left pending before it
// returns. The returned bool reports whether a fill actually ran (false:
// the plan was already resident or being fetched by someone else).
func (s *Session) Prefetch(ctx context.Context, req Request) (bool, error) {
	_, fetched, err := s.cache.prefetch(ctx, s.cache.resolverHandle(), req)
	return fetched, err
}

// prefetch resolves req through r into the cache outside the hit/miss
// accounting. Nothing executes behind it, so pending saves are made here.
func (c *Cache) prefetch(ctx context.Context, r Resolver, req Request) (*Plan, bool, error) {
	key := KeyOf(req)
	fill := c.fill(ctx, r, key, req)
	return c.acquire(key, false, func() (*Plan, error) {
		p, err := fill()
		if err == nil {
			p.settle(ctx)
		}
		return p, err
	})
}

// WarmStats reports what a Warm pass did: how many plans it decoded from
// the store (Taped of them with their replay tape, so they will never run
// the simulator), how many it had to compile (and, when a store was given,
// saved back), and how many were already resident and left untouched.
type WarmStats struct {
	Loaded   int
	Taped    int
	Compiled int
	Resident int
}

// Warm pre-populates the session's plan cache before it takes traffic,
// so no request pays a compile on the serving path. Every requested shape
// is resolved through the chain attaching ps would give the cache
// (Cache.SetStore; the bare compiler when ps is nil): loaded from ps when
// stored there, compiled and saved back otherwise, which is also how a
// shape list is compiled into a store ahead of deployment. A nil reqs warms
// every plan ps holds. Warm does not disturb the hit/miss accounting (its
// loads and compiles are reported in WarmStats, not CacheStats) and is safe
// to run while the session serves: it coalesces with in-flight request
// compiles for the same key rather than duplicating them, and a shape that
// fails to warm — or a load or save ps failed — is recorded in the joined
// error and skipped, never blocking the rest of the list. A plan saved here
// without a tape is saved once more when a later run records one; a failure
// of that save is logged and kept as the cache's LastStoreError.
func (s *Session) Warm(ps KeyedStore, reqs []Request) (WarmStats, error) {
	var (
		st   WarmStats
		mu   sync.Mutex // a plan Warm inserted may run, and fail to save its tape, while Warm goes on
		errs []error
	)
	failed := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	chain := Compiler()
	if ps != nil {
		chain = storeChain(ps)
		if reqs == nil {
			for _, k := range ps.Keys() {
				reqs = append(reqs, k.Request())
			}
		}
	}
	attach(chain, &attachment{storeErr: failed})
	// A tape one of these plans records later is saved under the claim laid
	// here; a failure of that save is the cache's to log and remember.
	defer attach(chain, &attachment{storeErr: s.cache.noteStoreError})
	for _, req := range reqs {
		p, fetched, err := s.cache.prefetch(context.Background(), chain, req)
		switch {
		case err != nil:
			failed(err)
		case !fetched:
			st.Resident++
		case p.replay.loaded:
			st.Taped++
		}
	}
	for _, stage := range chain.Stats() {
		switch stage.Stage {
		case "store":
			st.Loaded = int(stage.Hits)
		case "compile":
			st.Compiled = int(stage.Hits)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return st, errors.Join(errs...)
}

// Export saves every resident plan to ps, returning how many were
// written. Together with Warm this is the deployment cycle: a staging
// process compiles its workload and Exports, the serving processes Warm.
func (s *Session) Export(ps PlanStore) (int, error) {
	n := 0
	var errs []error
	for _, p := range s.cache.Plans() {
		if err := ps.Save(p); err != nil {
			errs = append(errs, err)
			continue
		}
		n++
	}
	return n, errors.Join(errs...)
}

// Package sched is the multi-tenant serving layer between callers and
// the bounded simulation worker pool: per-tenant submission queues
// dispatched by weighted-fair scheduling within strict priority classes,
// admission control that rejects instead of blocking when a tenant's
// queue is full, context-aware cancellation for queued and running
// requests, and per-tenant accounting (served/rejected/cancelled counts,
// queue-wait and execution latency quantiles) plus pool-level
// backpressure metrics.
//
// The scheduler is work-agnostic: a request is any func(ctx) error. The
// plan subsystem submits fabric replays through it; nothing here knows
// about plans, which keeps the QoS layer reusable and separately
// testable.
//
// Dispatch policy, in order:
//
//  1. Strict priority between classes: any queued Interactive request is
//     dispatched before any Batch request, and Batch before Background.
//     Within a saturating workload, higher classes can starve lower ones
//     by design — Background exists to be starved.
//  2. Weighted fair within a class: each tenant carries a virtual time
//     advanced by 1/Weight per dispatched request; the backlogged tenant
//     with the smallest virtual time runs next, so two saturating tenants
//     with weights 3 and 1 complete work in a 3:1 ratio. A tenant waking
//     from idle is lifted to the class's virtual-time floor, so idling
//     banks no credit and returning tenants neither starve others nor
//     wait out their accumulated lag.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// Priority is a strict dispatch class. The zero value is Batch; the
// numeric order is the dispatch order (higher runs first).
type Priority int

const (
	// Background requests run only when no other class has queued work.
	Background Priority = -1
	// Batch is the default class.
	Batch Priority = 0
	// Interactive requests are dispatched before any queued Batch or
	// Background request, regardless of tenant weights.
	Interactive Priority = 1
)

// String names the class for stats tables and JSON dumps.
func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Background:
		return "background"
	default:
		return "batch"
	}
}

// classLabel renders a class's Prometheus label body once, so the
// dispatch path's histogram observe never formats a string.
func classLabel(p Priority) string {
	switch p {
	case Interactive:
		return `class="interactive"`
	case Background:
		return `class="background"`
	default:
		return `class="batch"`
	}
}

// DefaultMaxQueue bounds a tenant's queue when its config leaves MaxQueue
// at zero.
const DefaultMaxQueue = 1024

// DefaultTenantName is the tenant that requests submitted with an empty
// tenant name are queued under and accounted to.
const DefaultTenantName = "default"

// ErrOverloaded is returned by Submit, without blocking, when the
// tenant's queue is at its MaxQueue bound. It is the admission-control
// signal: the caller sheds load (or retries with backoff) instead of
// stacking up behind a saturated pool forever.
var ErrOverloaded = errors.New("sched: tenant queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// ErrTenantRemoved is returned by requests that were still queued when
// their tenant was removed out from under them.
var ErrTenantRemoved = errors.New("sched: tenant removed")

// ErrPanic marks requests whose work panicked inside a worker. The
// worker recovers the panic into a PanicError (which wraps this
// sentinel), so one poisoned request fails typed instead of killing the
// process; test with errors.Is(err, ErrPanic).
var ErrPanic = errors.New("sched: request panicked")

// ErrDeadline marks requests cut short by a context deadline — while
// queued (shed before dispatch), at dispatch (expired entries never
// execute), or mid-run (the watchdog aborts the work). Errors wrapping
// it also wrap context.DeadlineExceeded, so both errors.Is checks hold.
var ErrDeadline = errors.New("sched: deadline exceeded")

// CtxError translates a context's error into the scheduler's taxonomy:
// deadline expiry gains the typed ErrDeadline mark (still matching
// context.DeadlineExceeded), plain cancellation passes through. It is
// exported for layers (the plan executor's watchdog) that surface
// context expiry from inside the work itself.
func CtxError(ctx context.Context) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	return err
}

// PanicError is a recovered worker panic: the panic value plus a
// sanitized stack (the panicking request's frames, with the recovery
// plumbing trimmed). Error() deliberately excludes the stack — it is
// operator material for logs and metrics, not something a serving layer
// should echo to clients.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("sched: request panicked: %v", e.Value) }

// Is makes errors.Is(err, ErrPanic) match.
func (e *PanicError) Is(target error) bool { return target == ErrPanic }

// sanitizeStack trims a debug.Stack dump to the frames below the
// scheduler's recovery point: the goroutine header and the panic/recover
// plumbing are dropped, leaving the frames of the work that panicked.
func sanitizeStack(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	// Drop the "goroutine N [running]:" header and the contiguous prefix
	// of recovery machinery (debug.Stack, the recover closure, the
	// runtime's panic plumbing) so the first surviving frame is the code
	// that actually panicked. Stop at the first real frame — runIsolated
	// also appears *below* the user's code as its caller and must stay.
	start := 1
	for start+1 < len(lines) {
		f := lines[start]
		if strings.HasPrefix(f, "runtime/debug.Stack") ||
			strings.HasPrefix(f, "panic(") ||
			strings.HasPrefix(f, "runtime.gopanic") ||
			strings.HasPrefix(f, "runtime.panic") ||
			strings.Contains(f, ").runIsolated.func") {
			start += 2
			continue
		}
		break
	}
	if start >= len(lines) {
		start = 1
	}
	return strings.TrimRight(strings.Join(lines[start:], "\n"), "\n")
}

// TenantConfig sets a tenant's share of the pool. The zero value is a
// weight-1 Batch tenant with the default queue bound.
type TenantConfig struct {
	// Weight is the tenant's relative share within its priority class
	// (<= 0 selects 1). A weight-3 tenant saturating the pool alongside a
	// weight-1 tenant completes three requests for every one of theirs.
	Weight int
	// Priority is the strict dispatch class.
	Priority Priority
	// MaxQueue bounds the tenant's queued (not yet running) requests
	// (<= 0 selects DefaultMaxQueue). Submissions beyond the bound return
	// ErrOverloaded immediately.
	MaxQueue int
}

func (c TenantConfig) normalized() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	return c
}

// Config tunes a Scheduler; the zero value is usable.
type Config struct {
	// Workers bounds the number of concurrently running requests
	// (<= 0 selects GOMAXPROCS).
	Workers int
	// DefaultTenant is the config applied to tenants first seen by Submit
	// rather than registered with SetTenant — including the default
	// tenant itself.
	DefaultTenant TenantConfig
}

// taskState is the lifecycle of one submitted request. Transitions are
// made under the scheduler mutex; every terminal transition is counted
// exactly once, so per-tenant accounting always balances:
// submitted = served + rejected + cancelled.
type taskState int8

const (
	taskQueued    taskState = iota
	taskCancelled           // terminal: caller's ctx fired while queued
	taskRunning
	taskAbandoned // terminal: caller's ctx fired mid-run; counted cancelled
	taskDone      // terminal: executed (counted served, Failed if it errored)
	taskShed      // terminal: ctx already expired at dispatch; counted cancelled, never ran
)

type task struct {
	tn        *tenant
	ctx       context.Context
	run       func(context.Context) error
	state     taskState
	err       error // valid after done is closed and state == taskDone
	submitted time.Time
	started   time.Time
	done      chan struct{}
	// qspan is the "sched.queue" trace span, open from Submit until the
	// task leaves the queue (dispatch, shed or cancel). Nil unless the
	// submitting request carries a live trace.
	qspan *obs.Span
}

type tenant struct {
	name string
	cfg  TenantConfig
	// q is the FIFO of queued tasks. Cancelled entries stay in place (a
	// cancel must not be O(queue)) and are discarded when they reach the
	// head; depth counts only live entries.
	q     []*task
	depth int
	// vtime is the weighted-fair virtual time within the priority class.
	vtime     float64
	stats     TenantStats
	queueWait sketch
	exec      sketch
}

// Scheduler dispatches submitted requests onto a bounded worker pool
// under the QoS policy above. All methods are safe for concurrent use.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond // workers wait here for runnable tasks
	workers int
	defcfg  TenantConfig
	tenants map[string]*tenant
	// floors holds, per class, the largest virtual time a dispatch has
	// observed; tenants waking from idle are lifted to it.
	floors    map[Priority]float64
	depth     int // queued live tasks across tenants
	maxDepth  int
	running   int
	started   bool // workers spawned (lazily, on first Submit)
	closed    bool
	satSince  time.Time     // nonzero while every worker is busy
	saturated time.Duration // cumulative all-workers-busy time
	wg        sync.WaitGroup

	// queueWaitHist is the class-labelled queue-wait distribution behind
	// /metrics' wse_sched_queue_wait_seconds histogram — unlike the
	// per-tenant sketches it has fixed Prometheus buckets, so fleet-wide
	// aggregation across scrapes is exact.
	queueWaitHist *obs.HistogramVec

	// panics counts worker panics recovered into PanicErrors — the
	// poisoned-request signal /metrics watches. Atomic: bumped on the
	// recovery path, read by Stats without the mutex.
	panics atomic.Int64
}

// New creates a scheduler. The worker goroutines are spawned lazily on
// the first Submit, so a scheduler that never serves (a staging session
// used only to compile a shape list into a plan store, say) costs nothing
// to create and needs no Close.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		workers:       cfg.Workers,
		defcfg:        cfg.DefaultTenant.normalized(),
		tenants:       make(map[string]*tenant),
		floors:        make(map[Priority]float64),
		queueWaitHist: obs.NewHistogramVec(nil),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// startLocked spawns the worker pool on first use.
func (s *Scheduler) startLocked() {
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Workers returns the worker-pool size.
func (s *Scheduler) Workers() int { return s.workers }

// SetTenant registers (or reconfigures) a tenant. Reconfiguring is live:
// already-queued requests are dispatched under the new weight, class and
// queue bound. A tenant changing class joins at the new class's
// virtual-time floor — its history in the old class neither starves it
// (a heavily-served tenant promoted to Interactive would otherwise wait
// out its accumulated virtual time against fresher peers) nor entitles
// it to a catch-up burst.
func (s *Scheduler) SetTenant(name string, cfg TenantConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tn := s.tenantLocked(name)
	cfg = cfg.normalized()
	if cfg.Priority != tn.cfg.Priority {
		tn.vtime = s.floors[cfg.Priority]
	}
	tn.cfg = cfg
}

// RemoveTenant deletes a tenant and releases everything its name pinned:
// the queue slice, both latency sketches and the accounting (together a
// few KB per name — what makes per-user tenancy viable). It reports
// whether the tenant existed. Requests still queued under the tenant fail
// immediately with ErrTenantRemoved and are accounted as rejected (the
// per-tenant balance holds up to the moment the stats vanish with the
// tenant); requests already running complete normally, but their terminal
// accounting goes down with the removed tenant. A name removed while in
// use is not reserved: the next Submit or SetTenant under it starts a
// fresh tenant at the default config and a zeroed ledger.
func (s *Scheduler) RemoveTenant(name string) bool {
	if name == "" {
		name = DefaultTenantName
	}
	s.mu.Lock()
	tn, ok := s.tenants[name]
	if !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.tenants, name)
	var dropped []*task
	for _, t := range tn.q {
		if t.state != taskQueued {
			continue
		}
		t.state = taskDone
		t.err = ErrTenantRemoved
		t.run = nil
		t.ctx = nil
		tn.stats.Rejected++
		tn.depth--
		s.depth--
		dropped = append(dropped, t)
	}
	tn.q = nil
	s.mu.Unlock()
	// Wake the dropped submitters outside the lock; their Submit returns
	// the task error, exactly as a served-but-failed request would.
	for _, t := range dropped {
		close(t.done)
	}
	return true
}

func (s *Scheduler) tenantLocked(name string) *tenant {
	if name == "" {
		name = DefaultTenantName
	}
	tn, ok := s.tenants[name]
	if !ok {
		tn = &tenant{name: name, cfg: s.defcfg}
		s.tenants[name] = tn
	}
	return tn
}

// Submit queues run under the named tenant ("" selects the default
// tenant) and blocks until it has executed, returning its error — or
// until admission or cancellation cuts it short: ErrOverloaded when the
// tenant's queue is full (immediately, never blocking on a saturated
// pool), ErrClosed after Close, and ctx.Err() when the context is
// cancelled or times out. A context firing while the request is queued
// unqueues it without running it; firing mid-run, Submit returns at once
// while the work (which the fabric engine cannot abandon mid-simulation)
// completes in the background and is accounted as cancelled, not served.
func (s *Scheduler) Submit(ctx context.Context, tenant string, run func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	tn, err := s.admitLocked(ctx, tenant)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	tn.stats.Submitted++
	s.startLocked()
	_, qspan := obs.Start(ctx, "sched.queue")
	qspan.SetAttr("tenant", tn.name)
	qspan.SetAttr("class", tn.cfg.Priority.String())
	t := &task{tn: tn, ctx: ctx, run: run, submitted: time.Now(), done: make(chan struct{}), qspan: qspan}
	if tn.depth == 0 && tn.vtime < s.floors[tn.cfg.Priority] {
		tn.vtime = s.floors[tn.cfg.Priority]
	}
	tn.q = append(tn.q, t)
	tn.depth++
	s.depth++
	if s.depth > s.maxDepth {
		s.maxDepth = s.depth
	}
	s.mu.Unlock()
	s.cond.Signal()

	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
	}

	s.mu.Lock()
	switch t.state {
	case taskShed:
		// The worker shed the expired entry at dispatch and accounted it;
		// its error (the typed deadline/cancellation) is already set.
		s.mu.Unlock()
		<-t.done
		return t.err
	case taskQueued:
		// Unqueue: the entry stays in the FIFO slice (dropped when it
		// reaches the head) but leaves the live accounting now. Its work
		// closure and context are released immediately — a quiet tenant
		// must not pin cancelled requests' captured inputs until its next
		// dispatch — and any cancelled prefix is trimmed so an all-
		// cancelled queue frees its entries without waiting for one.
		t.state = taskCancelled
		t.run = nil
		t.ctx = nil
		tn.stats.Cancelled++
		tn.depth--
		s.depth--
		t.qspan.SetError(CtxError(ctx))
		t.qspan.End()
		for len(tn.q) > 0 && tn.q[0].state == taskCancelled {
			tn.q[0] = nil
			tn.q = tn.q[1:]
		}
		s.mu.Unlock()
		return CtxError(ctx)
	case taskRunning:
		// Abandon: the worker finishes the simulation but its result is
		// discarded and the request counts as cancelled.
		t.state = taskAbandoned
		tn.stats.Cancelled++
		s.mu.Unlock()
		return CtxError(ctx)
	default:
		// Completion raced the cancellation; the request was served.
		s.mu.Unlock()
		<-t.done
		return t.err
	}
}

// admitLocked runs the admission checks and, on failure only, the
// terminal accounting: a request turned away here was submitted and
// rejected (or cancelled). On success it counts nothing — Submit
// accounts the accepted request when it actually queues it, so an Admit
// pre-check followed by the Submit never double-counts.
func (s *Scheduler) admitLocked(ctx context.Context, tenant string) (*tenant, error) {
	tn := s.tenantLocked(tenant)
	switch {
	case s.closed:
		tn.stats.Submitted++
		tn.stats.Rejected++
		return nil, ErrClosed
	case ctx.Err() != nil:
		tn.stats.Submitted++
		tn.stats.Cancelled++
		return nil, CtxError(ctx)
	case tn.depth >= tn.cfg.MaxQueue:
		tn.stats.Submitted++
		tn.stats.Rejected++
		return nil, ErrOverloaded
	}
	return tn, nil
}

// Admit runs the admission checks a Submit for tenant would run right
// now — closed scheduler, dead context, full queue — without queueing
// anything, and accounts a failure exactly as Submit would (submitted +
// rejected/cancelled). It exists for callers whose requests need
// expensive preparation (the plan session compiles before it submits):
// checking admission first keeps an overloaded tenant from burning
// compile cycles and churning shared caches on requests that would only
// be turned away. A nil error is a snapshot, not a reservation — the
// later Submit re-checks and can still reject.
func (s *Scheduler) Admit(ctx context.Context, tenant string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.admitLocked(ctx, tenant)
	return err
}

// pickLocked selects the next runnable task under the dispatch policy,
// or nil when no tenant has queued work.
func (s *Scheduler) pickLocked() *task {
	var best *tenant
	for _, tn := range s.tenants {
		if tn.depth == 0 {
			continue
		}
		if best == nil || dispatchBefore(tn, best) {
			best = tn
		}
	}
	if best == nil {
		return nil
	}
	for {
		t := best.q[0]
		best.q[0] = nil
		best.q = best.q[1:]
		if t.state == taskCancelled {
			continue // unqueued by its submitter; already accounted
		}
		best.depth--
		s.depth--
		return t
	}
}

// dispatchBefore orders backlogged tenants: strict class first, then
// smallest virtual time, then name (a deterministic tiebreak so tests
// and replays of the same arrival order dispatch identically).
func dispatchBefore(a, b *tenant) bool {
	if a.cfg.Priority != b.cfg.Priority {
		return a.cfg.Priority > b.cfg.Priority
	}
	if a.vtime != b.vtime {
		return a.vtime < b.vtime
	}
	return a.name < b.name
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		t := s.pickLocked()
		if t == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		tn := t.tn
		// Deadline shedding: an entry whose context expired while it
		// queued is turned away here, before any work runs — under
		// saturation this is what keeps the pool from burning its cycles
		// on requests whose callers have already given up. The terminal
		// transition happens under the same lock hold as the pick, so the
		// submitter (which may be racing its own ctx.Done) observes
		// exactly one accounting.
		if t.ctx != nil && t.ctx.Err() != nil {
			t.state = taskShed
			t.err = CtxError(t.ctx)
			t.run = nil
			t.ctx = nil
			tn.stats.Cancelled++
			t.qspan.SetError(t.err)
			t.qspan.End()
			close(t.done)
			continue
		}
		now := time.Now()
		t.state = taskRunning
		t.started = now
		t.qspan.End()
		tn.queueWait.observe(now.Sub(t.submitted))
		s.queueWaitHist.Observe(classLabel(tn.cfg.Priority), now.Sub(t.submitted).Seconds())
		if tn.vtime > s.floors[tn.cfg.Priority] {
			s.floors[tn.cfg.Priority] = tn.vtime
		}
		tn.vtime += 1 / float64(tn.cfg.Weight)
		s.running++
		s.noteSaturationLocked(now)
		s.mu.Unlock()

		// The exec span is opened on the task's own context so the work
		// closure's spans (plan resolve, fabric exec) nest under it.
		ectx, espan := obs.Start(t.ctx, "sched.exec")
		espan.SetAttr("tenant", tn.name)
		err := s.runIsolated(t, ectx)
		espan.SetError(err)
		espan.End()

		// end is captured before the lock wait so exec latency measures
		// the work alone; saturation accounting gets a fresh timestamp
		// under the lock, where all its transitions are serialised — a
		// stale end here could predate another worker's lock-held
		// dispatch time and subtract from the saturation total.
		end := time.Now()
		s.mu.Lock()
		s.running--
		s.noteSaturationLocked(time.Now())
		tn.exec.observe(end.Sub(t.started))
		if t.state == taskRunning {
			t.state = taskDone
			t.err = err
			tn.stats.Served++
			if err != nil {
				tn.stats.Failed++
			}
		}
		close(t.done)
	}
}

// runIsolated executes one task with panic isolation: a panicking
// request resolves to a typed PanicError (carrying a sanitized stack)
// instead of unwinding the worker goroutine and killing the process.
// The worker itself, the pool it belongs to and every other in-flight
// request are untouched — the failure blast radius is exactly one
// request. The sched.dispatch failpoint lives inside the isolation
// boundary, so injected dispatch panics exercise the same recovery.
func (s *Scheduler) runIsolated(t *task, ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = &PanicError{Value: r, Stack: sanitizeStack(debug.Stack())}
		}
	}()
	if err := faults.Inject("sched.dispatch"); err != nil {
		return err
	}
	return t.run(ctx)
}

// noteSaturationLocked accumulates the time during which every worker
// was busy — the pool's backpressure signal. Called on every running
// count transition with the transition time.
func (s *Scheduler) noteSaturationLocked(now time.Time) {
	if s.running == s.workers {
		if s.satSince.IsZero() {
			s.satSince = now
		}
	} else if !s.satSince.IsZero() {
		s.saturated += now.Sub(s.satSince)
		s.satSince = time.Time{}
	}
}

// Close stops admission (further Submits return ErrClosed), drains every
// already-queued request, waits for running work to finish, and releases
// the workers. Close is idempotent and safe to call concurrently with
// in-flight Submits.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	return nil
}

// TenantStats is one tenant's accounting. Counters balance exactly:
// Submitted = Served + Rejected + Cancelled, where Cancelled covers both
// requests unqueued by their context and running requests their caller
// abandoned, and Failed is the subset of Served whose work returned an
// error. Latency quantiles come from a bounded log-bucketed histogram
// (see sketch) with ≤ 6.25% relative error.
type TenantStats struct {
	Weight    int      `json:"weight"`
	Priority  Priority `json:"-"`
	Class     string   `json:"class"`
	Submitted int64    `json:"submitted"`
	Served    int64    `json:"served"`
	Rejected  int64    `json:"rejected"`
	Cancelled int64    `json:"cancelled"`
	Failed    int64    `json:"failed"`
	// Depth is the tenant's queued (not running) request count right now.
	Depth int `json:"depth"`
	// QueueWait quantiles measure submission to dispatch; Exec quantiles
	// measure dispatch to completion (in nanoseconds when marshalled).
	QueueWaitP50 time.Duration `json:"queue_wait_p50_ns"`
	QueueWaitP99 time.Duration `json:"queue_wait_p99_ns"`
	ExecP50      time.Duration `json:"exec_p50_ns"`
	ExecP99      time.Duration `json:"exec_p99_ns"`
}

// PoolStats is the worker pool's backpressure accounting.
type PoolStats struct {
	Workers int `json:"workers"`
	// Running and Depth are the instantaneous busy-worker and queued
	// request counts; MaxDepth is the high-water queue depth.
	Running  int `json:"running"`
	Depth    int `json:"depth"`
	MaxDepth int `json:"max_depth"`
	// Saturated is the cumulative time every worker was busy — while it
	// grows, arriving work necessarily queues. SaturatedNow reports
	// whether the pool is saturated at snapshot time.
	Saturated    time.Duration `json:"saturated_ns"`
	SaturatedNow bool          `json:"saturated_now"`
}

// Stats is a consistent snapshot of every tenant's accounting and the
// pool's backpressure metrics.
type Stats struct {
	Tenants map[string]TenantStats `json:"tenants"`
	Pool    PoolStats              `json:"pool"`
	// Panics counts worker panics recovered into typed PanicErrors.
	// Panicked requests are Served+Failed in their tenant's ledger (they
	// ran); this counter is the cross-tenant poison signal.
	Panics int64 `json:"panics"`
	// QueueWaitHist is the class-labelled queue-wait histogram (label
	// body → snapshot), consumed by the /metrics exporter. Excluded from
	// JSON dumps — the sketch quantiles above remain the wire form.
	QueueWaitHist map[string]obs.HistogramSnapshot `json:"-"`
}

// Stats snapshots the scheduler's accounting.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Tenants: make(map[string]TenantStats, len(s.tenants))}
	for name, tn := range s.tenants {
		ts := tn.stats
		ts.Weight = tn.cfg.Weight
		ts.Priority = tn.cfg.Priority
		ts.Class = tn.cfg.Priority.String()
		ts.Depth = tn.depth
		ts.QueueWaitP50 = tn.queueWait.quantile(0.50)
		ts.QueueWaitP99 = tn.queueWait.quantile(0.99)
		ts.ExecP50 = tn.exec.quantile(0.50)
		ts.ExecP99 = tn.exec.quantile(0.99)
		st.Tenants[name] = ts
	}
	st.Pool = PoolStats{
		Workers:   s.workers,
		Running:   s.running,
		Depth:     s.depth,
		MaxDepth:  s.maxDepth,
		Saturated: s.saturated,
	}
	if !s.satSince.IsZero() {
		st.Pool.Saturated += time.Since(s.satSince)
		st.Pool.SaturatedNow = true
	}
	st.Panics = s.panics.Load()
	st.QueueWaitHist = s.queueWaitHist.Snapshot()
	return st
}

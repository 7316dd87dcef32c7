package main

// The six workloads. Each is a closed loop: a collective's caller blocks
// on its result, so the next operation starts when the previous one
// returns. A workload is a fixed list of shapes plus the path its
// operations take through the system; the seed only chooses the input
// vectors, so the simulated side (cycles, model, bound) is the same for
// every seed and only host time varies between runs.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"time"

	wse "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/serve"
)

// kase is one shape a workload runs: its seeded inputs, the host-side
// reference for them, and what the set-up pass measured — the cycle count
// every timed operation must reproduce, and the model and bound the
// conformance metrics compare it with.
type kase struct {
	sh     wse.Shape
	opt    *wse.Options // nil: the fabric defaults
	inputs [][]float32
	want   []float32

	cycles    int64
	predicted float64 // wse.Predict
	reported  float64 // Report.Predicted of the set-up run
	bound     float64 // wse.Bound
}

func (k *kase) String() string {
	sh := k.sh
	switch sh.Kind {
	case wse.KindReduce2D, wse.KindAllReduce2D:
		return fmt.Sprintf("%s/%s %dx%d B=%d", sh.Kind, sh.Alg2D, sh.Width, sh.Height, sh.B)
	case wse.KindBroadcast2D:
		return fmt.Sprintf("%s %dx%d B=%d", sh.Kind, sh.Width, sh.Height, sh.B)
	case wse.KindReduce, wse.KindAllReduce, wse.KindAllReduceMidRoot:
		return fmt.Sprintf("%s/%s P=%d B=%d", sh.Kind, sh.Alg, sh.P, sh.B)
	}
	return fmt.Sprintf("%s P=%d B=%d", sh.Kind, sh.P, sh.B)
}

// runOpts are the per-call options of the case (none for default fabric
// options, so the session's own apply).
func (k *kase) runOpts() []wse.Option {
	if k.opt == nil {
		return nil
	}
	return []wse.Option{wse.WithOptions(*k.opt)}
}

// fill draws the case's inputs and computes their reference, the model
// estimate and the bound.
func (k *kase) fill(rng *rand.Rand) {
	k.inputs = genInputs(k.sh, rng)
	k.want = reference(k.sh, k.inputs)
	k.predicted = wse.Predict(k.sh, k.runOpts()...)
	k.bound = wse.Bound(k.sh, k.runOpts()...)
}

// learn is the set-up pass over one case, given what its first run
// returned: the report is checked PE by PE against the reference and its
// cycle count becomes the value every timed operation must reproduce.
func (k *kase) learn(rep *wse.Report, err error) error {
	if err == nil {
		err = checkAll(k.sh, k.want, rep)
	}
	if err != nil {
		return fmt.Errorf("%v: set-up pass: %w", k, err)
	}
	k.cycles, k.reported = rep.Cycles, rep.Predicted
	return nil
}

// verify is the check on every timed operation: the root vector against
// the reference and the cycle count against the set-up pass.
func (k *kase) verify(cycles int64, root []float32) error {
	if cycles != k.cycles {
		return fmt.Errorf("%v: %d cycles, set-up pass measured %d", k, cycles, k.cycles)
	}
	if err := checkRoot(k.sh, k.want, root); err != nil {
		return fmt.Errorf("%v: %w", k, err)
	}
	return nil
}

func cases(rng *rand.Rand, shapes ...wse.Shape) []*kase {
	out := make([]*kase, len(shapes))
	for i, sh := range shapes {
		out[i] = &kase{sh: sh}
		out[i].fill(rng)
	}
	return out
}

// ledgered is an instance that can show the program's own counters for
// the work its operations caused: the plan cache's and the scheduler's.
type ledgered interface {
	stats() (wse.PlanStats, wse.SchedStats)
}

// instance is a set-up workload, ready to be timed.
type instance interface {
	// cases lists the workload's distinct shapes after the set-up pass.
	cases() []*kase
	// op runs one operation and verifies its outputs. It returns the time
	// the operation took, which excludes any preparation the workload
	// defines as outside the operation (a fresh empty store directory).
	// seq counts the caller's operations from zero.
	op(caller, seq int) (time.Duration, error)
	close() error
}

type workload struct {
	name string
	why  string
	// callers is the number of closed-loop callers, each one goroutine.
	callers int
	// passes makes a slice one operation per case instead of a span of
	// time: paper-grid's metrics are over whole passes of its cells.
	passes bool
	// ledger names the layer times that lie on the path of one operation:
	// the traced pass sums them and reports what share of the operation
	// they leave unaccounted.
	ledger []string
	setup  func(e *env) (instance, error)
}

// env is what a set-up sees of the run: the seed and a scratch directory
// inside the checkout.
type env struct {
	seed uint64
	tmp  string
	prof profile
}

func (e *env) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(e.seed, stream)) }

// The layers on the path of a warm Session.Run, each by its self time, and
// of a first run, which no outer layer can be timed around from outside:
// the ledger paths of the workloads are built from these.
var (
	replayPath = []string{"wse.session_self", "plan.self", "fabric.reset", "fabric.run"}
	firstRun   = []string{"wse.validate", "plan.key", "sched.submit", "plan.unpooled_self", "fabric.new", "fabric.run"}
)

func path(base []string, more ...string) []string {
	return append(append([]string(nil), base...), more...)
}

// thermalSeed fixes the RNG chain of replay-fabric's throttled shape. It
// is part of the workload, not of the run: were it the run's seed, the
// shape's cycle count would change with the seed and sim_cycles could not
// be compared exactly between runs.
const thermalSeed = 20240603

var workloads = []workload{
	{
		name:    "replay-fabric",
		why:     "warm Session.Run replays of 5 large shapes: over 90% of the time is the fabric cycle loop, so engine work shows and fixed per-call costs do not",
		callers: 1,
		ledger:  replayPath,
		setup: func(e *env) (instance, error) {
			ks := cases(e.rng(1),
				wse.Shape{Kind: wse.KindReduce, Alg: wse.Auto, P: 512, B: 256},
				wse.Shape{Kind: wse.KindAllReduce, Alg: wse.Auto, P: 256, B: 512},
				wse.Shape{Kind: wse.KindBroadcast, P: 512, B: 512},
				wse.Shape{Kind: wse.KindReduce2D, Alg2D: wse.Auto2D, Width: 32, Height: 32, B: 64},
			)
			hot := &kase{
				sh:  wse.Shape{Kind: wse.KindReduce, Alg: wse.TwoPhase, P: 256, B: 256},
				opt: &wse.Options{ThermalNoopRate: 0.01, ClockSkewMax: 8, Seed: thermalSeed},
			}
			hot.fill(e.rng(2))
			return newReplay(append(ks, hot))
		},
	},
	{
		name:    "replay-tiny",
		why:     "warm Session.Run replays of all 11 kinds at 16 PEs plus four 1-wavelet shapes: about half the time is outside the fabric (validate, key, cache, scheduler, bind, result maps)",
		callers: 1,
		ledger:  replayPath,
		setup: func(e *env) (instance, error) {
			const p, side, b = 16, 4, 16
			shapes := []wse.Shape{
				{Kind: wse.KindReduce, Alg: wse.Auto, P: p, B: b},
				{Kind: wse.KindAllReduce, Alg: wse.Auto, P: p, B: b},
				// Predict is +Inf for the middle-root kind under auto (a
				// baseline finding paper-grid reports); pinned here so the
				// workload's own model error stays finite.
				{Kind: wse.KindAllReduceMidRoot, Alg: wse.TwoPhase, P: p, B: b},
				{Kind: wse.KindBroadcast, P: p, B: b},
				{Kind: wse.KindScatter, P: p, B: b},
				{Kind: wse.KindGather, P: p, B: b},
				{Kind: wse.KindReduceScatter, P: p, B: b},
				{Kind: wse.KindAllGather, P: p, B: b},
				{Kind: wse.KindReduce2D, Alg2D: wse.Auto2D, Width: side, Height: side, B: b},
				{Kind: wse.KindAllReduce2D, Alg2D: wse.Auto2D, Width: side, Height: side, B: b},
				{Kind: wse.KindBroadcast2D, Width: side, Height: side, B: b},
				// The paper's 4-byte end of the size axis.
				{Kind: wse.KindReduce, Alg: wse.Auto, P: p, B: 1},
				{Kind: wse.KindAllReduce, Alg: wse.Auto, P: p, B: 1},
				{Kind: wse.KindAllReduce2D, Alg2D: wse.Auto2D, Width: side, Height: side, B: 1},
				{Kind: wse.KindBroadcast, P: p, B: 1},
			}
			return newReplay(cases(e.rng(1), shapes...))
		},
	},
	{
		name:    "cold-compile",
		why:     "a fresh Session over an empty write-through plan store first-runs 9 program-heavy shapes: the plan-miss path with its store writes (compile, encode, put, fabric.New)",
		callers: 1,
		ledger:  path(firstRun, "plan.compile", "planstore.put"),
		setup:   func(e *env) (instance, error) { return newCold(e, false) },
	},
	{
		name:    "cold-store",
		why:     "the same 9 first runs over a store populated in set-up, so no plan compiles: the store reads (load, decode) beside cold-compile's writes",
		callers: 1,
		ledger:  path(firstRun, "planstore.load"),
		setup:   func(e *env) (instance, error) { return newCold(e, true) },
	},
	{
		name:    "wire-serve",
		why:     "2 closed-loop HTTP clients (tenants fg and bulk) post /v1/run of a 64-PE allreduce: JSON, HTTP and the scheduler rival the replay, so wire work can move it",
		callers: 2,
		ledger:  path(replayPath, "client.self", "serve.body_decode", "serve.body_encode"),
		setup: func(e *env) (instance, error) {
			return newWire(cases(e.rng(1), wse.Shape{Kind: wse.KindAllReduce, Alg: wse.Auto, P: 64, B: 256}), nil)
		},
	},
	{
		name:    "paper-grid",
		why:     "one-shot wse.Run over a kind x algorithm x (P,B) lattice with every cell checked against model and bound: the paper's figures as numbers, in whole passes",
		callers: 1,
		ledger:  []string{"wse.validate", "plan.compile", "plan.unpooled_self", "fabric.new", "fabric.run"},
		passes:  true,
		setup:   newGrid,
	},
}

func workloadNamed(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// replay is a warm session over a fixed case list; one operation is one
// round of Session.Run over all of them.
type replay struct {
	s  *wse.Session
	ks []*kase
}

func newReplay(ks []*kase) (instance, error) {
	r := &replay{s: wse.NewSession(wse.SessionConfig{}), ks: ks}
	for _, k := range ks {
		if err := k.learn(r.s.Run(context.Background(), k.sh, k.inputs, k.runOpts()...)); err != nil {
			r.s.Close()
			return nil, err
		}
	}
	return r, nil
}

func (r *replay) cases() []*kase { return r.ks }
func (r *replay) close() error   { return r.s.Close() }

func (r *replay) stats() (wse.PlanStats, wse.SchedStats) { return r.s.PlanStats(), r.s.SchedStats() }

func (r *replay) op(_, _ int) (time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	for _, k := range r.ks {
		rep, err := r.s.Run(ctx, k.sh, k.inputs, k.runOpts()...)
		if err != nil {
			return 0, fmt.Errorf("%v: %w", k, err)
		}
		if err := k.verify(rep.Cycles, rep.Root); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// coldShapes are program-heavy and execution-light: long rows and wide
// grids at 4 wavelets, so compiling (or decoding) the plan and building
// its fabric outweigh the simulation.
var coldShapes = []wse.Shape{
	{Kind: wse.KindReduce, Alg: wse.Auto, P: 512, B: 4},
	{Kind: wse.KindReduce, Alg: wse.TwoPhase, P: 512, B: 4},
	{Kind: wse.KindAllReduce, Alg: wse.Auto, P: 256, B: 4},
	{Kind: wse.KindAllReduceMidRoot, Alg: wse.TwoPhase, P: 257, B: 4},
	{Kind: wse.KindBroadcast, P: 512, B: 4},
	{Kind: wse.KindReduce2D, Alg2D: wse.Auto2D, Width: 32, Height: 32, B: 4},
	{Kind: wse.KindAllReduce2D, Alg2D: wse.Auto2D, Width: 32, Height: 32, B: 4},
	{Kind: wse.KindBroadcast2D, Width: 32, Height: 32, B: 4},
	{Kind: wse.KindGather, P: 64, B: 64},
}

// cold first-runs coldShapes on a fresh session per operation. With
// stored set, every session shares one store populated in set-up and must
// decode all its plans from it; otherwise each operation gets its own
// empty store, opened before the timer starts, and writes through to it.
type cold struct {
	e      *env
	ks     []*kase
	stored *wse.PlanStore

	// The counters of every operation's session so far, summed: each
	// session lives for one operation, so nothing else remembers them.
	plan  wse.PlanStats
	sched wse.SchedStats
}

func newCold(e *env, stored bool) (instance, error) {
	c := &cold{e: e, ks: cases(e.rng(1), coldShapes...)}
	store, err := c.openStore()
	if err != nil {
		return nil, err
	}
	// The set-up pass doubles as the store's population: its write-through
	// session compiles and persists every shape.
	s := wse.NewSession(wse.SessionConfig{Store: store})
	defer s.Close()
	for _, k := range c.ks {
		if err := k.learn(s.Run(context.Background(), k.sh, k.inputs)); err != nil {
			return nil, err
		}
	}
	if stored {
		c.stored = store
	}
	return c, nil
}

func (c *cold) openStore() (*wse.PlanStore, error) {
	dir, err := os.MkdirTemp(c.e.tmp, "store-")
	if err != nil {
		return nil, err
	}
	return wse.OpenPlanStore(dir)
}

func (c *cold) cases() []*kase { return c.ks }
func (c *cold) close() error   { return nil }

func (c *cold) stats() (wse.PlanStats, wse.SchedStats) { return c.plan, c.sched }

func (c *cold) op(_, _ int) (time.Duration, error) {
	store := c.stored
	if store == nil {
		var err error
		if store, err = c.openStore(); err != nil {
			return 0, err
		}
		defer os.RemoveAll(store.Dir())
	}
	ctx := context.Background()
	start := time.Now()
	s := wse.NewSession(wse.SessionConfig{Store: store})
	for _, k := range c.ks {
		rep, err := s.Run(ctx, k.sh, k.inputs)
		if err != nil {
			s.Close()
			return 0, fmt.Errorf("%v: %w", k, err)
		}
		if err := k.verify(rep.Cycles, rep.Root); err != nil {
			s.Close()
			return 0, err
		}
	}
	if err := s.Close(); err != nil {
		return 0, err
	}
	d := time.Since(start)
	// The plan ledger is part of the output check: every plan came from
	// where the workload says it comes from.
	st := s.PlanStats()
	n := int64(len(c.ks))
	wantStore := int64(0)
	if c.stored != nil {
		wantStore = n
	}
	if st.Misses != n || st.StoreHits != wantStore || st.StoreErrors != 0 {
		return 0, fmt.Errorf("plan ledger: %d misses, %d store hits, %d store errors; want %d, %d, 0",
			st.Misses, st.StoreHits, st.StoreErrors, n, wantStore)
	}
	c.plan.Hits += st.Hits
	c.plan.Misses += st.Misses
	c.plan.StoreHits += st.StoreHits
	for name, t := range s.SchedStats().Tenants {
		if c.sched.Tenants == nil {
			c.sched.Tenants = make(map[string]wse.TenantStats)
		}
		sum := c.sched.Tenants[name]
		sum.Served += t.Served
		sum.Rejected += t.Rejected
		sum.Cancelled += t.Cancelled
		sum.QueueWaitP50 = t.QueueWaitP50 // the latest session's; quantiles do not add
		c.sched.Tenants[name] = sum
	}
	return d, nil
}

// wire serves its cases over a real loopback socket: the daemon's handler
// under an httptest server, one retrying client per tenant. The wire-serve
// workload has one case; the traced pass stands the same stack up over any
// workload's cases to probe the serving layers on them.
type wire struct {
	ks      []*kase
	sess    *wse.Session
	srv     *serve.Server
	ts      *httptest.Server
	clients []*client.Client
}

var wireTenants = []serve.TenantSpec{
	{Name: "fg", Cfg: wse.TenantConfig{Priority: wse.Interactive, Weight: 3}},
	{Name: "bulk", Cfg: wse.TenantConfig{Priority: wse.Batch, Weight: 1}},
}

// newWire stands the daemon up and runs the set-up pass over ks: in
// process for the per-PE check, then once per tenant over the wire.
// tracer (nil in timed runs) arms the program's own request tracing.
func newWire(ks []*kase, tracer *obs.Tracer) (*wire, error) {
	w := &wire{ks: ks, sess: wse.NewSession(wse.SessionConfig{})}
	w.srv = serve.New(serve.Config{Session: w.sess, Tenants: wireTenants, Tracer: tracer})
	w.ts = httptest.NewServer(w.srv.Handler())
	for _, t := range wireTenants {
		w.clients = append(w.clients, client.New(client.Config{BaseURL: w.ts.URL, Tenant: t.Name}))
	}
	for i, k := range ks {
		err := k.learn(w.sess.Run(context.Background(), k.sh, k.inputs, k.runOpts()...))
		for c := 0; err == nil && c < len(w.clients); c++ {
			_, err = w.op(c, i)
		}
		if err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func wireShape(sh wse.Shape) client.Shape {
	return client.Shape{
		Kind: string(sh.Kind), Alg: string(sh.Alg), Alg2D: string(sh.Alg2D),
		P: sh.P, Width: sh.Width, Height: sh.Height, B: sh.B,
	}
}

func (w *wire) cases() []*kase { return w.ks }

func (w *wire) close() error {
	w.ts.Close()
	return w.srv.Drain()
}

func (w *wire) stats() (wse.PlanStats, wse.SchedStats) {
	return w.sess.PlanStats(), w.sess.SchedStats()
}

// op posts one /v1/run of case seq (modulo the case list) as the caller's
// tenant.
func (w *wire) op(caller, seq int) (time.Duration, error) {
	k := w.ks[seq%len(w.ks)]
	start := time.Now()
	rep, err := w.clients[caller].Run(context.Background(), wireShape(k.sh), k.inputs)
	if err != nil {
		return 0, fmt.Errorf("%v: %w", k, err)
	}
	d := time.Since(start)
	return d, k.verify(rep.Cycles, rep.Root)
}

// conformance is the paper's triad as counts over a case list: how far
// measured cycles sit from the model, how close to the bound, and how
// many cases break an inequality the paper states.
type conformance struct {
	cells             int
	simCycles         int64
	modelErrMeanPct   float64 // |cycles - Predict| / cycles, finite cells
	modelErrMaxPct    float64
	boundRatioGeomean float64 // cycles / Bound, model-selected cells with a positive finite bound
	boundRatioMax     float64

	nonfinite       int // Predict is NaN or Inf
	predictMismatch int // wse.Predict disagrees with Report.Predicted
	boundGtPredict  int // Bound > Predict
	cyclesLtBound   int // cycles < Bound
	nonconforming   int // cells counted by at least one of the four
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func conform(ks []*kase) conformance {
	c := conformance{cells: len(ks)}
	var errSum, logSum float64
	var errN, ratioN int
	for _, k := range ks {
		c.simCycles += k.cycles
		cyc := float64(k.cycles)
		bad := false
		if !finite(k.predicted) {
			c.nonfinite++
			bad = true
		} else {
			e := 100 * math.Abs(cyc-k.predicted) / cyc
			errSum += e
			errN++
			c.modelErrMaxPct = math.Max(c.modelErrMaxPct, e)
			if k.bound > k.predicted {
				c.boundGtPredict++
				bad = true
			}
		}
		// NaN != NaN, so two non-finite estimates only agree bit for bit.
		if math.Float64bits(k.predicted) != math.Float64bits(k.reported) {
			c.predictMismatch++
			bad = true
		}
		if finite(k.bound) && k.bound > 0 {
			if cyc < k.bound {
				c.cyclesLtBound++
				bad = true
			}
			// The near-optimality claim is about what the model selects; a
			// pinned Star far above the bound is the algorithm's doing.
			if isAuto(k.sh) {
				r := cyc / k.bound
				logSum += math.Log(r)
				ratioN++
				c.boundRatioMax = math.Max(c.boundRatioMax, r)
			}
		}
		if bad {
			c.nonconforming++
		}
	}
	if errN > 0 {
		c.modelErrMeanPct = errSum / float64(errN)
	}
	if ratioN > 0 {
		c.boundRatioGeomean = math.Exp(logSum / float64(ratioN))
	}
	return c
}

package main

// The traced pass: per-layer numbers, measured from outside. Every layer
// is reached through its public functions on instances the benchmark owns
// — a plan compiled here, a fabric armed from that plan's Spec, a cache, a
// scheduler, a store, a resolver chain, a daemon — and each call is one
// span. Where a layer runs inside another's call (the fabric inside
// Plan.Execute, Execute inside Session.Run, the handler inside the
// client's round trip) the inner one is timed on its own instance and the
// outer one reports self time, the difference. Timing is per round: one
// round is the workload's own operation, untouched, followed by every
// layer probe over the workload's cases, so a layer's number is directly
// a share of the operation it belongs to.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	wse "repro"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planstore"
	"repro/internal/resolve"
	"repro/internal/sched"
	"repro/internal/serve"
)

// span is one timed call into a layer. Spans of one round share its id;
// Parent is the id of the span that caused this one (0 for a round's
// top-level spans). Times are nanoseconds since the pass began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans in memory and sums each name's time within the
// current round; endRound files the sums as one sample per name.
type recorder struct {
	t0     time.Time
	spans  []span
	round  int
	parent int
	cur    map[string]time.Duration
	series map[string][]float64 // name -> per-round time in ms
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), cur: make(map[string]time.Duration), series: make(map[string][]float64)}
}

// time runs fn as a span called name, a child of the span open around it.
func (r *recorder) time(name string, fn func() error) error {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: r.parent, Round: r.round, Name: name})
	outer := r.parent
	r.parent = id
	start := time.Now()
	err := fn()
	end := time.Now()
	r.parent = outer
	sp := &r.spans[id-1]
	sp.Start, sp.End = int64(start.Sub(r.t0)), int64(end.Sub(r.t0))
	r.cur[name] += end.Sub(start)
	return err
}

// derive files a self time for the round: what name's spans took minus
// what the inner layers took on their own instances.
func (r *recorder) derive(name, outer string, inner ...string) {
	d := r.cur[outer]
	for _, n := range inner {
		d -= r.cur[n]
	}
	r.cur[name] = d
}

func (r *recorder) endRound() {
	for name, d := range r.cur {
		r.series[name] = append(r.series[name], ms(d))
	}
	clear(r.cur)
	r.round++
}

// p50 is the median over rounds of a name's per-round time, in ms.
func (r *recorder) p50(name string) float64 {
	return median(r.series[name])
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// probe is everything the pass owns for one case: the instances the layer
// probes call into, and what their last calls returned.
type probe struct {
	k      *kase
	req    plan.Request
	key    plan.Key
	pl     *plan.Plan
	spec   *fabric.Spec // pl's program with the case's inputs bound
	fab    *fabric.Fabric
	blob   []byte // pl encoded
	body   []byte // the case's /v1/run request body
	onWire int    // the case's index on the wire probes, -1 when off them

	res   *fabric.Result
	col   fabric.ColumnarResult
	rep   *wse.Report
	empty *wse.PlanStore // a fresh store, made before put and chain_miss
	reply *httptest.ResponseRecorder
	rw    serve.ReportWire
}

// requestOf spells the case the way the session does: the shape plus the
// call's fabric options under the session's cycle cap.
func requestOf(k *kase) plan.Request {
	var opt wse.Options
	if k.opt != nil {
		opt = *k.opt
	}
	opt.MaxCycles = wse.DefaultSessionMaxCycles
	sh := k.sh
	return plan.Request{Kind: sh.Kind, Alg: sh.Alg, Alg2D: sh.Alg2D, P: sh.P, Width: sh.Width, Height: sh.Height, B: sh.B, Op: sh.Op, Opt: opt}
}

// bindSpec copies the plan's program into a fresh spec and binds one
// run's inputs as the PEs' initial vectors — what Plan.Execute does
// behind its call, done here so the fabric can be driven directly.
func bindSpec(pl *plan.Plan, inputs [][]float32) (*fabric.Spec, error) {
	s := fabric.NewSpec(pl.Spec.Width, pl.Spec.Height)
	if err := pl.Stamp(s); err != nil {
		return nil, err
	}
	switch pl.Kind {
	case plan.Broadcast1D, plan.Broadcast2D, plan.Scatter:
		s.PE(mesh.Coord{}).Init = inputs[0]
	case plan.AllGather:
		off, _ := core.Chunks(pl.P, pl.B)
		for j, chunk := range inputs {
			s.PE(mesh.Coord{X: j}).Init = core.AllGatherInit(chunk, off[j], pl.B)
		}
	default: // one vector (or chunk) per PE, row-major
		for i, v := range inputs {
			s.PE(mesh.Coord{X: i % s.Width, Y: i / s.Width}).Init = v
		}
	}
	return s, nil
}

// wireRequest is the body of POST /v1/run.
type wireRequest struct {
	Shape  serve.ShapeWire `json:"shape"`
	Inputs [][]float32     `json:"inputs"`
}

func newProbe(k *kase) (*probe, error) {
	p := &probe{k: k, req: requestOf(k), onWire: -1}
	p.key = plan.KeyOf(p.req)
	var err error
	if p.pl, err = plan.Compile(p.req); err != nil {
		return nil, err
	}
	if p.spec, err = bindSpec(p.pl, k.inputs); err != nil {
		return nil, err
	}
	if p.fab, err = fabric.New(p.spec, p.pl.Opt); err != nil {
		return nil, err
	}
	if p.blob, _, err = planstore.Encode(p.pl); err != nil {
		return nil, err
	}
	p.body, err = json.Marshal(wireRequest{Shape: serve.ShapeWire(wireShape(k.sh)), Inputs: k.inputs})
	return p, err
}

// verify checks a report the way every timed operation is checked.
func (p *probe) verify(rep *wse.Report, err error) error {
	if err != nil {
		return err
	}
	return p.k.verify(rep.Cycles, rep.Root)
}

// layer is one probe of the pass: a timed call into one layer's public
// surface, with what has to happen around it left outside the timer.
type layer struct {
	name   string
	wire   bool                 // only for cases the wire format can carry
	before func(p *probe) error // untimed preparation
	run    func(p *probe) error // the span
	after  func(p *probe) error // untimed check of what run returned
}

// pass is one traced pass: the instances the probes share and what the
// rounds have measured so far.
type pass struct {
	b   *bench
	w   *workload
	in  instance
	res *traceResult
	rec *recorder

	probes    []*probe
	roundSeqs []int   // the round's own operations, as op sequence numbers; nil: the round number
	wired     []*kase // the cases on the wire probes

	cache *plan.Cache
	sch   *sched.Scheduler
	sess  *wse.Session
	full  *wse.PlanStore // holds every probe's plan
	hit   resolve.Resolver
	miss  []resolve.Stats // summed over the per-call empty-store chains
	plain *wire           // the daemon without its tracer

	lat, calib       []float64
	opCPU            time.Duration
	ops              int
	steps, hops, cyc int64 // of the last round's fabric.run spans
}

// maxRounds bounds the rounds of a pass over cheap cases.
const maxRounds = 256

// calibEvery spaces the host calibration loop through the rounds.
const calibEvery = 8

// traceResult is what a traced pass hands back.
type traceResult struct {
	m                 *metrics
	attempted, failed int
	firstErr          error
}

func (r *traceResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// tracedPass measures the per-layer metrics of one workload in about dur:
// rounds for the first half of it, then the one-offs, and the program's
// own tracer for what is left.
func (b *bench) tracedPass(w *workload, in instance, dur time.Duration) (*traceResult, error) {
	began := time.Now()
	t, err := b.newPass(w, in)
	if err != nil {
		return nil, err
	}
	defer t.close()
	t.rounds(began.Add(dur / 2))
	if err := t.oneOffs(); err != nil {
		return nil, err
	}
	if err := t.obsPhase(began.Add(dur)); err != nil {
		return nil, err
	}
	t.report()
	if err := t.rec.write(b.spansPath(w)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return t.res, nil
}

func (b *bench) newPass(w *workload, in instance) (*pass, error) {
	t := &pass{b: b, w: w, in: in, res: &traceResult{m: newMetrics(perLayer)}, rec: newRecorder()}
	// paper-grid learns each cell's cycle count on the cell's first run;
	// a pass that has not been timed first completes that here.
	ks := in.cases()
	for seq, k := range ks {
		if k.cycles == 0 {
			t.res.attempted++
			if _, err := in.op(0, seq); err != nil {
				t.res.fail(err)
			}
		}
	}
	// A workload whose operation is one case (the grid) has the probed
	// cases as its round; the others have one operation over all of them.
	perCase := w.pass(in) > 0
	stride := (len(ks) + b.env.prof.probes - 1) / b.env.prof.probes
	for i := 0; i < len(ks); i += stride {
		p, err := newProbe(ks[i])
		if err != nil {
			return nil, fmt.Errorf("%v: %w", ks[i], err)
		}
		// The wire format carries no fabric options, and its JSON cannot
		// spell the +Inf the model estimates for a middle-root auto shape
		// (the daemon answers such a run with an empty 200).
		if ks[i].opt == nil && finite(ks[i].predicted) {
			p.onWire = len(t.wired)
			t.wired = append(t.wired, ks[i])
		}
		t.probes = append(t.probes, p)
		if perCase {
			t.roundSeqs = append(t.roundSeqs, i)
		}
	}
	t.cache = plan.NewCache(0)
	t.sch = sched.New(sched.Config{})
	t.sess = wse.NewSession(wse.SessionConfig{})
	var err error
	if t.full, err = openStore(b.env); err != nil {
		t.close()
		return nil, err
	}
	ctx := context.Background()
	for _, p := range t.probes {
		_, err := t.cache.Get(p.req)
		if err == nil {
			_, err = t.sess.Run(ctx, p.k.sh, p.k.inputs, p.k.runOpts()...)
		}
		if err == nil {
			err = t.full.Save(p.pl)
		}
		if err != nil {
			t.close()
			return nil, fmt.Errorf("%v: %w", p.k, err)
		}
	}
	t.hit = resolve.Sequential(resolve.Store(t.full), resolve.WriteBack(resolve.Compiler(), t.full))
	if t.plain, err = newWire(t.wired, nil); err != nil {
		t.close()
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	return t, nil
}

func (t *pass) close() {
	t.sch.Close()
	t.sess.Close()
	if t.plain != nil {
		t.plain.close()
	}
}

// layers lists the probes in the order a round makes them, innermost
// layer first. Each layer is probed over all the cases before the next,
// so every span finds its case as cold as the workload's own round over
// the cases does; probing a case layer after layer instead would hand the
// outer layers a warm program and make their self times negative.
func (t *pass) layers() []layer {
	ctx := context.Background()
	return []layer{
		{name: "fabric.reset", run: func(p *probe) error { return p.fab.Reset(p.spec) }},
		{name: "fabric.run",
			run: func(p *probe) (err error) { p.res, err = p.fab.Run(); return },
			after: func(p *probe) error {
				t.steps += p.res.Stats.Steps
				t.hops += p.res.Stats.Hops
				t.cyc += p.res.Cycles
				return p.k.verify(p.res.Cycles, p.res.Acc[mesh.Coord{}])
			}},
		{name: "fabric.columnar_run",
			before: func(p *probe) error { return p.fab.Reset(p.spec) },
			run:    func(p *probe) error { return p.fab.RunColumnar(&p.col) },
			after:  func(p *probe) error { return p.k.verify(p.col.Cycles, p.col.Root) }},
		{name: "fabric.new", run: func(p *probe) error { _, err := fabric.New(p.spec, p.pl.Opt); return err }},

		{name: "plan.key", run: func(p *probe) error { plan.KeyOf(p.req); return nil }},
		{name: "plan.cache_hit", run: func(p *probe) error { _, err := t.cache.Get(p.req); return err }},
		{name: "plan.execute", run: func(p *probe) error { return p.verify(p.pl.Execute(p.k.inputs)) }},
		{name: "plan.execute_unpooled", run: func(p *probe) error { return p.verify(p.pl.ExecuteUnpooled(p.k.inputs)) }},
		{name: "plan.compile", run: func(p *probe) error { _, err := plan.Compile(p.req); return err }},
		{name: "sched.submit", run: func(p *probe) error {
			return t.sch.Submit(ctx, "", func(context.Context) error { return nil })
		}},

		{name: "wse.validate", run: func(p *probe) error { return p.k.sh.Validate() }},
		{name: "model.predict", run: func(p *probe) error { wse.Predict(p.k.sh, p.k.runOpts()...); return nil }},
		{name: "lowerbound.bound", run: func(p *probe) error { wse.Bound(p.k.sh, p.k.runOpts()...); return nil }},
		{name: "wse.session_run", run: func(p *probe) error {
			return p.verify(t.sess.Run(ctx, p.k.sh, p.k.inputs, p.k.runOpts()...))
		}},
		{name: "wse.oneshot", run: func(p *probe) error {
			return p.verify(wse.Run(ctx, p.k.sh, p.k.inputs, p.k.runOpts()...))
		}},

		// Persistence: the codec alone, the store around it, the resolver
		// chain around the store — a hit on a full store, a miss on an
		// empty one (compile and write back).
		{name: "planstore.encode", run: func(p *probe) error { _, _, err := planstore.Encode(p.pl); return err }},
		{name: "planstore.decode", run: func(p *probe) error { _, _, err := planstore.Decode(p.blob); return err }},
		{name: "planstore.load", run: func(p *probe) error {
			_, ok, err := t.full.Load(p.key)
			if err == nil && !ok {
				err = fmt.Errorf("stored plan missing")
			}
			return err
		}},
		{name: "planstore.put",
			before: func(p *probe) (err error) { p.empty, err = openStore(t.b.env); return },
			run:    func(p *probe) error { _, err := p.empty.Put(p.pl); return err },
			after:  func(p *probe) error { return os.RemoveAll(p.empty.Dir()) }},
		{name: "resolve.chain_hit", run: func(p *probe) error { _, err := t.hit.Resolve(ctx, p.key); return err }},
		{name: "resolve.chain_miss",
			before: func(p *probe) (err error) { p.empty, err = openStore(t.b.env); return },
			run: func(p *probe) error {
				miss := resolve.Sequential(resolve.Store(p.empty), resolve.WriteBack(resolve.Compiler(), p.empty))
				_, err := miss.Resolve(ctx, p.key)
				t.miss = addStages(t.miss, miss.Stats())
				return err
			},
			after: func(p *probe) error { return os.RemoveAll(p.empty.Dir()) }},

		// The wire: the JSON codec alone on the request's body and the
		// response's, the handler without a socket, the client's round trip
		// over one.
		{name: "serve.body_decode", wire: true, run: func(p *probe) error {
			var req wireRequest
			return json.Unmarshal(p.body, &req)
		}},
		{name: "serve.handler", wire: true,
			before: func(p *probe) error { p.reply = httptest.NewRecorder(); return nil },
			run: func(p *probe) error {
				t.plain.srv.Handler().ServeHTTP(p.reply, httptest.NewRequest("POST", "/v1/run", bytes.NewReader(p.body)))
				return nil
			},
			after: func(p *probe) error {
				if p.reply.Code != 200 {
					return fmt.Errorf("handler answered %d: %s", p.reply.Code, p.reply.Body)
				}
				if err := json.Unmarshal(p.reply.Body.Bytes(), &p.rw); err != nil {
					return err
				}
				return p.k.verify(p.rw.Cycles, p.rw.Root)
			}},
		{name: "serve.body_encode", wire: true, run: func(p *probe) error { _, err := json.Marshal(p.rw); return err }},
		{name: "client.run", wire: true, run: func(p *probe) error { _, err := t.plain.op(0, p.onWire); return err }},
	}
}

// rounds runs rounds until the deadline (minRounds at least, maxRounds at
// most). A round is the workload's own operation, exactly as the timed
// slices run it, then every layer probe over the cases.
func (t *pass) rounds(until time.Time) {
	var plan0 wse.PlanStats
	var sched0 wse.SchedStats
	led, _ := t.in.(ledgered)
	if led != nil {
		plan0, sched0 = led.stats()
	}
	layers := t.layers()
	rec := t.rec
	for round := 0; round < maxRounds && (round < t.b.env.prof.minRounds || time.Now().Before(until)); round++ {
		if round%calibEvery == 0 {
			t.calib = append(t.calib, ms(calibrate()))
		}
		seqs := t.roundSeqs
		if seqs == nil {
			seqs = []int{round}
		}
		cpu0 := cpuTime()
		for _, seq := range seqs {
			t.res.attempted++
			t.ops++
			var d time.Duration
			if err := rec.time("op", func() (err error) { d, err = t.in.op(0, seq); return }); err != nil {
				t.res.fail(err)
				continue
			}
			t.lat = append(t.lat, ms(d))
		}
		t.opCPU += cpuTime() - cpu0

		t.steps, t.hops, t.cyc = 0, 0, 0
		for _, l := range layers {
			for _, p := range t.probes {
				if l.wire && p.onWire < 0 {
					continue
				}
				t.res.attempted++
				var err error
				if l.before != nil {
					err = l.before(p)
				}
				if err == nil {
					err = rec.time(l.name, func() error { return l.run(p) })
				}
				if err == nil && l.after != nil {
					err = l.after(p)
				}
				if err != nil {
					t.res.fail(fmt.Errorf("%v: %s: %w", p.k, l.name, err))
				}
			}
		}
		rec.derive("plan.self", "plan.execute", "fabric.reset", "fabric.run")
		rec.derive("plan.unpooled_self", "plan.execute_unpooled", "fabric.new", "fabric.run")
		rec.derive("wse.session_self", "wse.session_run", "plan.execute")
		rec.derive("client.self", "client.run", "serve.handler")
		var accounted time.Duration
		for _, name := range t.w.ledger {
			accounted += rec.cur[name]
		}
		rec.cur["ledger.accounted"] = accounted
		rec.endRound()
	}
	if led == nil {
		return
	}
	// The program's own counters for the rounds' operations.
	m := t.res.m
	plan1, sched1 := led.stats()
	m.set("plan.cache_hits", float64(plan1.Hits-plan0.Hits))
	m.set("plan.cache_misses", float64(plan1.Misses-plan0.Misses))
	m.set("plan.store_hits", float64(plan1.StoreHits-plan0.StoreHits))
	var served, rejected, cancelled int64
	var wait time.Duration
	for name, ts := range sched1.Tenants {
		was := sched0.Tenants[name]
		served += ts.Served - was.Served
		rejected += ts.Rejected - was.Rejected
		cancelled += ts.Cancelled - was.Cancelled
		wait = max(wait, ts.QueueWaitP50)
	}
	m.set("sched.served", float64(served))
	m.set("sched.rejected", float64(rejected))
	m.set("sched.cancelled", float64(cancelled))
	m.set("sched.queue_wait_p50_us", us(wait))
}

// oneOffs are measured once, outside the rounds: a batch replay per case
// and the serial engine beside the sharded one; the model tables' build
// times come from the set-up that preceded the pass.
func (t *pass) oneOffs() error {
	m := t.res.m
	var batch float64
	batchRuns := t.b.env.prof.batchRuns
	for _, p := range t.probes {
		batches := make([][][]float32, batchRuns)
		for i := range batches {
			batches[i] = p.k.inputs
		}
		t.res.attempted++
		start := time.Now()
		reps, err := p.pl.ExecuteBatch(context.Background(), batches, plan.ExecOptions{Columnar: true})
		batch += ms(time.Since(start)) / float64(batchRuns)
		if err == nil {
			err = p.verify(reps[batchRuns-1], nil)
		}
		if err != nil {
			t.res.fail(fmt.Errorf("%v: batch: %w", p.k, err))
		}
	}
	m.set("plan.batch_ms_per_run", batch)
	serial, sharded, err := shardProbe(t.b.env)
	if err != nil {
		return err
	}
	m.set("fabric.serial_ns_per_step", serial)
	m.set("fabric.sharded_ns_per_step", sharded)
	m.set("autogen.table_build_ms", ms(t.b.autogenBuild))
	m.set("lowerbound.table_build_ms", ms(t.b.boundBuild))
	return nil
}

// report turns what the rounds measured into the per-layer metrics.
func (t *pass) report() {
	m, rec := t.res.m, t.rec
	// Every time in the table whose name is a span's (or a derived self
	// time's) plus its unit is the median of that name's rounds.
	for _, d := range perLayer {
		for suffix, scale := range map[string]float64{"_ms": 1, "_us": 1000} {
			if base, ok := strings.CutSuffix(d.Name, suffix); ok && len(rec.series[base]) > 0 {
				m.set(d.Name, scale*rec.p50(base))
			}
		}
	}
	m.set("fabric.steps", float64(t.steps))
	m.set("fabric.hops", float64(t.hops))
	if t.steps > 0 && t.cyc > 0 {
		m.set("fabric.ns_per_step", 1e6*rec.p50("fabric.run")/float64(t.steps))
		m.set("fabric.steps_per_cycle", float64(t.steps)/float64(t.cyc))
	}
	if c := rec.p50("plan.compile"); c > 0 {
		m.set("planstore.decode_vs_compile", rec.p50("planstore.decode")/c)
	}
	var blobKB, reqKB, respKB float64
	for _, p := range t.probes {
		blobKB += float64(len(p.blob)) / 1024
		if p.onWire >= 0 {
			reqKB += float64(len(p.body)) / 1024
			respKB += float64(p.reply.Body.Len()) / 1024
		}
	}
	m.set("planstore.blob_kb", blobKB)
	m.set("serve.request_kb", reqKB)
	m.set("serve.response_kb", respKB)
	cm := t.plain.clients[0].Metrics()
	m.set("client.attempts", float64(cm.Attempts))
	m.set("client.retries", float64(cm.Retries))
	for _, st := range addStages(t.miss, t.hit.Stats()) {
		switch st.Stage {
		case "store":
			m.set("resolve.store_lookups", float64(st.Lookups))
			m.set("resolve.store_hits", float64(st.Hits))
			m.set("resolve.store_misses", float64(st.Misses))
		case "compile":
			m.set("resolve.compile_lookups", float64(st.Lookups))
			m.set("resolve.compile_hits", float64(st.Hits))
		}
	}

	// The ledger: the round's own operation against the layers on its path.
	round, accounted := rec.p50("op"), rec.p50("ledger.accounted")
	m.set("ledger.round_ms", round)
	if round > 0 {
		m.set("ledger.unaccounted_share", (round-accounted)/round)
		m.set("ledger.fabric_run_share", rec.p50("fabric.run")/round)
	}
	m.set("lat.samples", float64(len(t.lat)))
	m.set("lat.p50_ms", percentile(t.lat, 0.50))
	m.set("lat.p90_ms", percentile(t.lat, 0.90))
	if len(t.lat) >= p99MinSamples {
		m.set("lat.p99_ms", percentile(t.lat, 0.99))
	}

	// Conformance of the workload's cases, kind by kind.
	ks := t.in.cases()
	c := conform(ks)
	m.set("model.nonfinite_cells", float64(c.nonfinite))
	m.set("model.predict_mismatch_cells", float64(c.predictMismatch))
	m.set("lowerbound.bound_gt_predict_cells", float64(c.boundGtPredict))
	m.set("lowerbound.cycles_lt_bound_cells", float64(c.cyclesLtBound))
	m.set("grid.cells", float64(c.cells))
	m.set("grid.nonconforming_share", float64(c.nonconforming)/float64(c.cells))
	m.set("grid.model_err_max_pct", c.modelErrMaxPct)
	m.set("grid.bound_ratio_max", c.boundRatioMax)
	m.set("grid.vendor_speedup_max", vendorSpeedupMax(ks))
	for kind, st := range byKind(ks) {
		m.set("grid."+string(kind)+".bound_ratio", st.boundRatio)
		m.set("grid."+string(kind)+".model_err_pct", st.modelErrPct)
	}

	m.set("host.cores", float64(runtime.NumCPU()))
	m.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	m.set("host.calib_ms", median(t.calib))
	m.set("host.calib_min_ms", percentile(t.calib, 0))
	m.set("host.calib_max_ms", percentile(t.calib, 1))
	if t.ops > 0 {
		m.set("host.cpu_ms_per_op", ms(t.opCPU)/float64(t.ops))
	}
	m.set("host.rss_peak_mb", rssPeakMB())
}

func openStore(e *env) (*wse.PlanStore, error) {
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		return nil, err
	}
	return wse.OpenPlanStore(dir)
}

// addStages sums per-stage resolver counters by stage name.
func addStages(sum, more []resolve.Stats) []resolve.Stats {
	for _, st := range more {
		i := 0
		for i < len(sum) && sum[i].Stage != st.Stage {
			i++
		}
		if i == len(sum) {
			sum = append(sum, resolve.Stats{Stage: st.Stage})
		}
		sum[i].Lookups += st.Lookups
		sum[i].Hits += st.Hits
		sum[i].Misses += st.Misses
		sum[i].Errors += st.Errors
	}
	return sum
}

// shardProbe times the serial engine against the 2-shard one on a fabric
// big enough to shard (reduce2d 64x64 B=16), as host ns per simulated
// step. On a host with fewer than two idle cores the sharded number shows
// the barrier's cost, not a speed-up; host.cores says which it is.
func shardProbe(e *env) (serial, sharded float64, err error) {
	k := cases(e.rng(9), wse.Shape{Kind: wse.KindReduce2D, Alg2D: wse.Auto2D, Width: 64, Height: 64, B: 16})[0]
	pl, err := plan.Compile(requestOf(k))
	if err != nil {
		return 0, 0, err
	}
	spec, err := bindSpec(pl, k.inputs)
	if err != nil {
		return 0, 0, err
	}
	nsPerStep := func(shards int) (float64, error) {
		opt := pl.Opt
		opt.Shards = shards
		f, err := fabric.New(spec, opt)
		if err != nil {
			return 0, err
		}
		var best float64
		for i := 0; i < 3; i++ {
			if err := f.Reset(spec); err != nil {
				return 0, err
			}
			start := time.Now()
			r, err := f.Run()
			d := time.Since(start)
			if err != nil {
				return 0, err
			}
			if err := checkRoot(k.sh, k.want, r.Acc[mesh.Coord{}]); err != nil {
				return 0, err
			}
			if ns := float64(d) / float64(r.Stats.Steps); best == 0 || ns < best {
				best = ns
			}
		}
		return best, nil
	}
	if serial, err = nsPerStep(1); err != nil {
		return 0, 0, err
	}
	sharded, err = nsPerStep(2)
	return serial, sharded, err
}

// obsPhase arms the program's own tracer on a second daemon over the same
// cases and sends both daemons rounds of requests, turn about, until the
// deadline: the PR 9 phases of a round's requests as numbers, the share of
// the client's wall time no phase covers, and the traced round against
// the untraced one beside it.
func (t *pass) obsPhase(deadline time.Time) error {
	n := len(t.wired)
	if n == 0 {
		return nil
	}
	const ring = 4096
	tracer := obs.NewTracer(obs.Config{Sample: 1, RingSize: ring})
	defer tracer.Close()
	traced, err := newWire(t.wired, tracer)
	if err != nil {
		return fmt.Errorf("traced wire probe: %w", err)
	}
	round := func(w *wire) float64 {
		var sum time.Duration
		for seq := range t.wired {
			t.res.attempted++
			d, err := w.op(0, seq)
			if err != nil {
				t.res.fail(err)
			}
			sum += d
		}
		return ms(sum)
	}
	var with, without []float64
	rounds := 0
	for ; rounds < maxRounds && (rounds+1)*n <= ring && (rounds < t.b.env.prof.minRounds || time.Now().Before(deadline)); rounds++ {
		if rounds%2 == 0 {
			with, without = append(with, round(traced)), append(without, round(t.plain))
		} else {
			without, with = append(without, round(t.plain)), append(with, round(traced))
		}
	}
	// Closing the daemon waits for its handlers, so every request's trace
	// is committed before the ring is read.
	if err := traced.close(); err != nil {
		return err
	}
	traces := tracer.Traces(0, rounds*n) // newest first: exactly the rounds' requests
	if len(traces) != rounds*n {
		return fmt.Errorf("traced wire probe: %d traces committed for %d requests", len(traces), rounds*n)
	}
	phases := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		sums := map[string]time.Duration{}
		for _, tr := range traces[r*n : (r+1)*n] {
			for _, sp := range tr.Spans {
				sums[sp.Name] += sp.Duration
			}
		}
		for name, d := range sums {
			phases[name] = append(phases[name], ms(d))
		}
	}
	m := t.res.m
	var covered float64
	for name, metric := range map[string]string{
		"serve.decode": "obs.serve_decode_ms",
		"sched.queue":  "obs.sched_queue_ms",
		"fabric.exec":  "obs.fabric_exec_ms",
		"serve.encode": "obs.serve_encode_ms",
	} {
		v := median(phases[name])
		m.set(metric, v)
		covered += v
	}
	m.set("obs.traced_requests", float64(len(traces)))
	if tracedRound := median(with); tracedRound > 0 {
		m.set("obs.unaccounted_share", (tracedRound-covered)/tracedRound)
		if plainRound := median(without); plainRound > 0 {
			m.set("host.trace_overhead_pct", 100*(tracedRound-plainRound)/plainRound)
		}
	}
	return nil
}

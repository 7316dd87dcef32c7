// Package plan is the compiled-plan subsystem: the model-driven
// deployment the paper advocates (§5.5, §7) done once instead of per
// call. A Plan is a fully lowered collective — the fabric Spec (processor
// programs and per-color routing tables), the resolved algorithm and its
// reduction trees, the routing colors in use, and the performance-model
// prediction. Compiling a plan pays for tree search, program generation
// and validation; replaying one only binds fresh input vectors and runs
// the simulator. The Cache keys plans by their full content (kind,
// algorithm, shape, vector length, reduction op, fabric options) so a
// serving workload compiles each distinct collective exactly once.
package plan

import (
	"context"
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Kind names a collective a plan can capture.
type Kind string

// The collective kinds of the suite: the paper's Reduce/AllReduce/
// Broadcast in 1D and 2D, the chunked MPI-style extensions, and the
// middle-root AllReduce of §6.1.
const (
	Reduce1D         Kind = "reduce1d"
	AllReduce1D      Kind = "allreduce1d"
	Broadcast1D      Kind = "broadcast1d"
	Reduce2D         Kind = "reduce2d"
	AllReduce2D      Kind = "allreduce2d"
	Broadcast2D      Kind = "broadcast2d"
	Scatter          Kind = "scatter"
	Gather           Kind = "gather"
	ReduceScatter    Kind = "reducescatter"
	AllGather        Kind = "allgather"
	AllReduceMidRoot Kind = "allreduce-midroot"
)

// Request describes the collective to compile. Alg applies to the 1D
// tree/ring kinds, Alg2D to the 2D kinds; P is the row length of 1D
// kinds, Width×Height the grid of 2D kinds; B is the vector length in
// wavelets (for the chunked kinds, the total element count).
type Request struct {
	Kind   Kind
	Alg    core.Pattern
	Alg2D  core.Pattern2D
	P      int
	Width  int
	Height int
	B      int
	Op     fabric.ReduceOp
	Opt    fabric.Options
}

// OptKey is the comparable projection of fabric.Options used in cache
// keys: every field that influences compilation or execution, with the
// ramp latency normalised (0 and the explicit default compile
// identically) and the Tracer handle dropped.
type OptKey struct {
	TR              int
	QueueCap        int
	MaxCycles       int64
	ClockSkewMax    int64
	ThermalNoopRate float64
	TaskActivation  int
	Seed            uint64
	// Shards does not change results (the sharded engine is bit-identical
	// to the serial one) but is part of the key so a plan's engine runs
	// are all built for the requested execution mode.
	Shards int
}

// Key is the content key of a compiled plan.
type Key struct {
	Kind   Kind
	Alg    core.Pattern
	Alg2D  core.Pattern2D
	P      int
	Width  int
	Height int
	B      int
	Op     fabric.ReduceOp
	Opt    OptKey
}

// KeyOf derives the content key of a request. The key is fully canonical:
// defaulted options are resolved to their concrete values (via
// fabric.Options.Canonical) and fields the kind never consults — the 2D
// algorithm of a 1D reduce, the row length of a 2D grid, the algorithm of
// an algorithm-free broadcast — are zeroed, so two requests that compile
// to the same program share one key. Canonical keys are also what the
// plan store indexes by on disk, so this derivation must stay stable
// across releases; TestKeyEncodingPinned pins it.
func KeyOf(req Request) Key {
	opt := req.Opt.Canonical()
	k := Key{
		Kind:   req.Kind,
		Alg:    req.Alg,
		Alg2D:  req.Alg2D,
		P:      req.P,
		Width:  req.Width,
		Height: req.Height,
		B:      req.B,
		Op:     req.Op,
		Opt: OptKey{
			TR:              opt.TR,
			QueueCap:        opt.QueueCap,
			MaxCycles:       opt.MaxCycles,
			ClockSkewMax:    opt.ClockSkewMax,
			ThermalNoopRate: opt.ThermalNoopRate,
			TaskActivation:  opt.TaskActivation,
			Seed:            opt.Seed,
			Shards:          opt.Shards,
		},
	}
	ki := InfoOf(req.Kind)
	if ki == nil {
		return k
	}
	if ki.Grid {
		k.P = 0
	} else {
		k.Width, k.Height = 0, 0
	}
	if ki.Algs == nil {
		k.Alg = ""
	}
	if ki.Algs2D == nil {
		k.Alg2D = ""
	}
	if !ki.HasOp {
		k.Op = 0
	}
	return k
}

// Plan is a compiled collective: an immutable fabric program plus the
// metadata of the compilation. Plans are safe for concurrent replay —
// Execute never mutates the plan.
type Plan struct {
	// Key is the content key the plan was compiled under.
	Key Key
	// P, Width, Height, B, Op echo the request.
	P             int
	Width, Height int
	B             int
	Op            fabric.ReduceOp
	// Kind and Alg / Alg2D name the program the plan lowered: Auto requests
	// arrive here resolved by the performance model, so Kind is the row
	// whose builder ran — allreduce-midroot under an allreduce1d key when
	// Auto rooted the AllReduce in the middle — and Alg the schedule it ran,
	// for the algorithm-free chunked kinds too.
	Kind  Kind
	Alg   core.Pattern
	Alg2D core.Pattern2D
	// Opt are the fabric options replays execute under.
	Opt fabric.Options
	// Predicted is the performance model's cycle estimate.
	Predicted float64
	// Spec is the lowered fabric program, without initial data. It must
	// be treated as read-only; Execute binds inputs into per-run copies.
	Spec *fabric.Spec
	// Tree is the reduction tree of an end-rooted row. RowTree and ColTree
	// are the trees of a plan that reduces in two parts: the rows and then
	// column 0 of an X-Y grid, the west and then the east half of a
	// middle-rooted row. All empty for a ring, Snake and the treeless kinds.
	Tree, RowTree, ColTree comm.Tree
	// Colors lists the routing colors the program occupies.
	Colors []mesh.Color

	// replay is the plan's record-once replay tape (tape.go): once it is
	// recorded, or when the plan was stored with it, the plan walks a
	// recording of its dataflow instead of running the cycle loop.
	replay replayState
}

// Resolve replaces an Auto algorithm selection with the choice the kind's
// row makes from the performance model, and returns the request a run of r
// executes: its Kind is the row whose program runs (an Auto allreduce1d
// rooted in the middle resolves to allreduce-midroot) and its Alg the
// schedule, which for ReduceScatter and AllGather — whose requests name none
// — is Ring or the tree through the root. Resolving is idempotent, and the
// key of a request is taken before it. The public Shape.Resolve is this.
func (r Request) Resolve() Request {
	if ki := InfoOf(r.Kind); ki != nil && ki.auto != nil {
		ki.auto(&r, core.Params(r.Opt))
	}
	return r
}

// Compile lowers a request to a Plan: it resolves Auto selections,
// derives the reduction trees, generates the fabric program, validates
// it, and records the model prediction. This is the cold path the cache
// amortises away.
func Compile(req Request) (*Plan, error) {
	if err := faults.Inject("plan.compile"); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	key := KeyOf(req)
	req = req.Resolve()
	ki := InfoOf(req.Kind)
	pr := core.Params(req.Opt)
	// Plans carry canonical options (defaults resolved) so compiling the
	// same logical request in two processes yields byte-identical encoded
	// plans; the Tracer is a debug attachment, not part of the canonical
	// form, and rides along unchanged.
	opt := req.Opt.Canonical()
	opt.Tracer = req.Opt.Tracer
	p := &Plan{
		Key:    key,
		Kind:   req.Kind,
		P:      req.P,
		Width:  req.Width,
		Height: req.Height,
		B:      req.B,
		Op:     req.Op,
		Alg:    req.Alg,
		Alg2D:  req.Alg2D,
		Opt:    opt,
	}
	if ki.Grid {
		p.Spec = fabric.NewSpec(req.Width, req.Height)
	} else {
		p.Spec = fabric.NewSpec(req.P, 1)
	}
	if err := ki.build(p.Spec, req, pr); err != nil {
		return nil, err
	}
	p.Predicted = ki.predict(req, pr)
	if err := p.Spec.Validate(); err != nil {
		return nil, err
	}
	if ki.trees != nil {
		if err := ki.trees(p, pr); err != nil {
			return nil, err
		}
	}
	p.Colors = specColors(p.Spec)
	return p, nil
}

// specColors collects the distinct routing colors a program occupies, in
// ascending order.
func specColors(s *fabric.Spec) []mesh.Color {
	var seen [mesh.NumColors]bool
	s.Each(func(_ mesh.Coord, pe *fabric.PESpec) {
		for i := range pe.Configs {
			seen[pe.Configs[i].Color] = true
		}
	})
	var out []mesh.Color
	for c, ok := range seen {
		if ok {
			out = append(out, mesh.Color(c))
		}
	}
	return out
}

// bind produces a per-run spec: fresh PESpec headers (carved a row at a
// time, so an engine run stays at a handful of allocations) sharing the
// plan's immutable programs and routing tables, with Init set from inputs
// after their arity is validated. The fabric engine copies Init and never
// writes through Ops or Configs, so concurrent runs of one plan are
// race-free.
func (p *Plan) bind(inputs [][]float32) (*fabric.Spec, error) {
	if err := p.checkInputs(inputs); err != nil {
		return nil, err
	}
	s := fabric.NewSpec(p.Spec.Width, p.Spec.Height)
	p.Spec.Each(func(c mesh.Coord, pe *fabric.PESpec) {
		d := s.PE(c)
		*d = *pe
		d.Init = nil
	})
	chunkOff := p.chunkOffsets()
	for j, v := range inputs {
		pe := s.PE(p.inputCoord(j))
		if chunkOff != nil {
			pe.Init = core.AllGatherInit(v, chunkOff[j], p.B)
		} else {
			pe.Init = v
		}
	}
	return s, nil
}

// inputCoord is the PE input j of a run belongs to: inputs go to the PEs in
// row-major order, which for the one-vector kinds is the root alone.
func (p *Plan) inputCoord(j int) mesh.Coord {
	return mesh.Coord{X: j % p.Spec.Width, Y: j / p.Spec.Width}
}

// chunkOffsets is non-nil for the one kind whose inputs do not start their
// PE's accumulator: allgather chunk j sits at its Chunks offset of the
// B-length image every PE ends up holding.
func (p *Plan) chunkOffsets() []int {
	if ki := InfoOf(p.Kind); ki == nil || !ki.placed {
		return nil
	}
	off, _ := core.Chunks(p.P, p.B)
	return off
}

// checkInputs validates one run's input arity without binding it, also for
// callers (the batch path) that want every entry vetted before any
// simulation runs.
func (p *Plan) checkInputs(inputs [][]float32) error {
	return p.shape().CheckInputs(inputs)
}

// shape is the plan's kind, geometry and vector length as a request: what
// the kind table's input layout is asked about.
func (p *Plan) shape() Request {
	return Request{Kind: p.Kind, P: p.P, Width: p.Width, Height: p.Height, B: p.B}
}

// ExecOptions tune one replay. The zero value is the default map-shaped
// result path.
type ExecOptions struct {
	// Columnar skips the per-PE result maps: Report.All stays nil and the
	// accumulators land flat in Report.Columnar. For small plans the map
	// construction is the dominant per-run fixed cost, so callers that
	// only read Report.Root (or stream PEs in order) replay measurably
	// faster with Columnar set.
	Columnar bool
}

// Execute replays the plan with fresh inputs. For broadcast and scatter
// kinds, inputs is the single root vector wrapped in a one-element slice; for
// chunked kinds, the per-PE chunks; otherwise one vector per PE. Execute is
// safe to call concurrently.
//
// The first execution of a plan a Cache holds runs the fabric simulator on
// symbolic data to record the plan's replay tape (a plan nothing caches runs
// it plainly first and records on its second execution; a plan stored with
// its tape never runs it), and every execution from there on walks the tape
// instead of the cycle loop, with bit-identical results (see tape.go for
// when a plan stays on the simulator). Every simulator run builds its own
// fabric, so concurrent runs share nothing but the plan's read-only program.
func (p *Plan) Execute(inputs [][]float32) (*core.Report, error) {
	return p.ExecuteOpts(inputs, ExecOptions{})
}

// ExecuteOpts is Execute with per-replay options.
func (p *Plan) ExecuteOpts(inputs [][]float32, eo ExecOptions) (*core.Report, error) {
	return p.ExecuteCtx(nil, inputs, eo)
}

// ExecuteCtx is ExecuteOpts under a watchdog: while the simulator runs, the
// fabric polls ctx every few thousand cycles and aborts with a typed
// deadline/cancellation error (sched.CtxError) instead of simulating to
// MaxCycles for a caller that already left; a tape replay checks ctx once,
// before it starts. A nil ctx — or one that can never fire, like
// context.Background() — runs without the hook.
func (p *Plan) ExecuteCtx(ctx context.Context, inputs [][]float32, eo ExecOptions) (*core.Report, error) {
	// The span brackets the whole replay; mode/cycles/steps land as
	// attributes after the run, so tracing never reaches inside the cycle
	// loop. On a tape replay cycles and steps are the recorded engine run's,
	// not work this host did.
	_, span := obs.Start(ctx, "fabric.exec")
	defer span.End()
	rep, mode, err := p.execute(ctx, inputs, eo)
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	span.SetAttr("mode", mode)
	span.SetAttr("cycles", rep.Cycles)
	span.SetAttr("steps", rep.Stats.Steps)
	if span != nil && mode != modeEngine {
		tape, _ := p.Tape()
		span.SetAttr("tape_runs", tape.Runs())
	}
	return rep, nil
}

func (p *Plan) execute(ctx context.Context, inputs [][]float32, eo ExecOptions) (*core.Report, string, error) {
	if err := faults.Inject("fabric.exec"); err != nil {
		return nil, "", err
	}
	bt, f, mode, err := p.acquire(ctx, inputs)
	if err != nil {
		return nil, mode, err
	}
	if bt != nil {
		if err := ctxErr(ctx); err != nil {
			return nil, mode, err
		}
		return p.replayTape(bt, inputs, eo.Columnar, nil, nil), mode, nil
	}
	rep, err := p.runOn(f, eo)
	return rep, mode, err
}

// ctxErr is the typed form of ctx's error, nil for a nil or live ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return sched.CtxError(ctx)
}

// ExecuteBatch replays the plan once per entry of batches, all in one call.
// Every entry executes as a single Execute does, and a batch of more than one
// entry is there to be replayed: like a cached plan's first execution, its
// first entry records the tape (unless the plan has one, or cannot), so N
// entries cost one simulator run and N tape walks. The accumulators of the
// tape-walked reports are carved from one allocation, and with Columnar set
// they share one offset table and skip every per-run result map — the
// amortisation that collapses the fixed bind+assembly cost of small plans.
// Reports are returned in batch order; results never alias each other. ctx
// (nil means none) is observed between entries: cancellation mid-batch stops
// before the next replay and returns ctx.Err(), so an abandoned batch does
// not pin a worker for its full length. Concurrent ExecuteBatch calls (or
// batch racing single Execute) are safe.
func (p *Plan) ExecuteBatch(ctx context.Context, batches [][][]float32, eo ExecOptions) (reports []*core.Report, err error) {
	if len(batches) == 0 {
		return nil, nil
	}
	_, span := obs.Start(ctx, "fabric.batch")
	span.SetAttr("entries", len(batches))
	defer func() {
		span.SetError(err)
		span.End()
	}()
	if err := faults.Inject("fabric.exec"); err != nil {
		return nil, err
	}
	// Validate every batch entry before simulating any: a malformed entry
	// mid-batch must not discard completed work for a shape error the
	// caller could have been told about up front.
	for i, inputs := range batches {
		if err := p.checkInputs(inputs); err != nil {
			return nil, fmt.Errorf("plan: batch entry %d: %w", i, err)
		}
	}
	if len(batches) > 1 {
		// Like a cache insert: what is replayed records on its first run.
		p.replay.state.CompareAndSwap(tapeCold, tapeWarm)
	}
	reports = make([]*core.Report, len(batches))
	var (
		arena []float32 // zeroed images of the tape walks still to come
		off   []int     // offset table the columnar tape reports share
	)
	for i, inputs := range batches {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		bt, f, mode, err := p.acquire(ctx, inputs)
		if i == 0 {
			span.SetAttr("mode", mode)
		}
		switch {
		case err != nil:
		case bt == nil:
			reports[i], err = p.runOn(f, eo)
		default:
			n := bt.tape.AccLen()
			if len(arena) < n {
				arena = make([]float32, (len(batches)-i)*n)
			}
			reports[i] = p.replayTape(bt, inputs, eo.Columnar, arena[:n:n], off)
			arena = arena[n:]
			if eo.Columnar {
				off = reports[i].Columnar.Off
			}
		}
		if err != nil {
			return nil, fmt.Errorf("plan: batch run %d: %w", i, err)
		}
	}
	return reports, nil
}

// arm builds the fabric of one simulator run: inputs bound into a per-run
// spec, watched by ctx when it can fire.
func (p *Plan) arm(ctx context.Context, inputs [][]float32) (*fabric.Fabric, error) {
	s, err := p.bind(inputs)
	if err != nil {
		return nil, err
	}
	f, err := fabric.New(s, p.Opt)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		f.SetInterrupt(func() error { return sched.CtxError(ctx) })
	}
	return f, nil
}

// runOn runs an armed fabric and assembles the report in the requested
// layout. A run that completes is also what makes a cold plan due for
// recording.
func (p *Plan) runOn(f *fabric.Fabric, eo ExecOptions) (*core.Report, error) {
	var rep *core.Report
	if eo.Columnar {
		res := &fabric.ColumnarResult{}
		if err := f.RunColumnar(res); err != nil {
			return nil, err
		}
		rep = core.ReportOfColumnar(res, p.Predicted)
	} else {
		res, err := f.Run()
		if err != nil {
			return nil, err
		}
		rep = core.ReportOf(res, p.Predicted)
	}
	p.replay.state.CompareAndSwap(tapeCold, tapeWarm)
	return rep, nil
}

// ExecuteUnpooled runs the plan on the simulator whatever its tape says: the
// engine reference the tape is verified against bit for bit, and what
// benchmarks time as an engine run. It leaves the plan's replay state alone;
// serving paths should use Execute.
func (p *Plan) ExecuteUnpooled(inputs [][]float32) (*core.Report, error) {
	res, err := p.simulate(inputs)
	if err != nil {
		return nil, err
	}
	return core.ReportOf(res, p.Predicted), nil
}

// simulate runs the plan on a fabric built for this one run.
func (p *Plan) simulate(inputs [][]float32) (*fabric.Result, error) {
	f, err := p.arm(nil, inputs)
	if err != nil {
		return nil, err
	}
	return f.Run()
}

// Stamp deep-copies the plan's program into dst, which must span the same
// region. Unlike the replay path, the copy owns its Ops and Configs
// storage, so callers (e.g. the §8.3 measurement instrumenter) may rewrite
// programs freely without corrupting the cached plan.
func (p *Plan) Stamp(dst *fabric.Spec) error {
	if dst.Width != p.Spec.Width || dst.Height != p.Spec.Height {
		return fmt.Errorf("plan: stamp into %dx%d region, plan is %dx%d",
			dst.Width, dst.Height, p.Spec.Width, p.Spec.Height)
	}
	p.Spec.Each(func(c mesh.Coord, pe *fabric.PESpec) {
		d := dst.PE(c)
		d.Ops = append([]fabric.Op(nil), pe.Ops...)
		d.ClockSlots = pe.ClockSlots
		d.Configs = nil
		if len(pe.Configs) > 0 {
			d.Configs = make([]fabric.ColorConfig, len(pe.Configs))
			for i, row := range pe.Configs {
				d.Configs[i] = fabric.ColorConfig{Color: row.Color, Cfgs: append([]fabric.RouterConfig(nil), row.Cfgs...)}
			}
		}
	})
	return nil
}

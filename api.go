package wse

// The Shape-first API: three verbs over one value. A Shape names any of
// the 11 collective kinds; Run executes it on the fabric simulator,
// Predict returns the performance model's cycle estimate, and Bound the
// runtime lower bound — the paper's measure/model/bound triad (§5, §8)
// as one uniform surface. The same three verbs exist on the package
// (one-shot: compile, run, discard), on a Session (compile once, replay
// from the plan cache) and on a Tenant (replay under that tenant's QoS),
// so code written against a Shape moves between deployment styles
// without rewriting call sites. Submit is Run's asynchronous twin,
// returning a Future; RunBatch replays one Shape over many input sets
// with the fixed per-run costs amortised across the batch.
//
// The legacy named functions (Reduce, AllReduce2D, PredictGather, ...)
// are thin wrappers over these verbs and remain bit-identical.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
)

// ErrBadShape is wrapped by every shape- and input-validation failure:
// unknown kinds, non-positive geometry, algorithms a kind does not
// accept, and input slices whose arity does not match the Shape (ragged
// vectors, wrong PE count, mis-sized chunks). Test with
// errors.Is(err, wse.ErrBadShape).
var ErrBadShape = errors.New("wse: bad shape")

// Option configures a single Run, Predict, Bound, Submit or RunBatch
// call.
type Option func(*callOpts)

// RunOption is Option under the name the execution verbs use.
type RunOption = Option

type callOpts struct {
	opt      Options
	optSet   bool
	columnar bool
}

// WithOptions sets the fabric options of one call. On the package-level
// verbs the zero Options (the WSE-2 defaults) apply when absent; on
// Session and Tenant verbs the session's configured Options apply when
// absent, and an explicit WithOptions compiles (and caches) a plan for
// the overridden options instead.
func WithOptions(opt Options) Option {
	return func(c *callOpts) { c.opt = opt; c.optSet = true }
}

// WithColumnarResult makes Run (and Submit, RunBatch) skip the per-PE
// result maps: Report.All stays nil and the accumulators land flat in
// Report.Columnar, with Report.Root served from the same buffer. For
// small shapes map construction dominates the per-replay fixed cost, so
// callers that do not read per-PE maps replay measurably faster —
// especially across a batch, where the result buffers' offset table is
// shared. Predict and Bound ignore it.
func WithColumnarResult() Option {
	return func(c *callOpts) { c.columnar = true }
}

func resolveOpts(opts []Option) callOpts {
	var c callOpts
	for _, o := range opts {
		o(&c)
	}
	return c
}

// execOpts projects the per-call options onto the plan layer.
func (c callOpts) execOpts() plan.ExecOptions {
	return plan.ExecOptions{Columnar: c.columnar}
}

// Columnar is the map-free per-PE result layout of a columnar replay;
// see Report.Columnar and WithColumnarResult.
type Columnar = fabric.ColumnarResult

// Future is an asynchronously submitted collective's pending Report.
// Wait blocks for and returns the result (idempotent — concurrent and
// repeated Waits all see the same values); Err blocks and returns just
// the error; Done is the select-able completion signal. Abandoning a
// Future leaks nothing.
type Future = plan.Async

func badShape(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadShape, fmt.Sprintf(format, args...))
}

// algs1D lists what each 1D reduce-family kind accepts: the tree-family
// patterns everywhere, the ring mappings only where a ring program
// exists (AllReduce, §6.2).
func valid1DAlg(kind Collective, alg Algorithm) bool {
	switch alg {
	case Star, Chain, Tree, TwoPhase, AutoGen, Auto:
		return true
	case Ring, RingDP:
		return kind == KindAllReduce
	}
	return false
}

func valid2DAlg(alg Algorithm2D) bool {
	switch alg {
	case XYStar, XYChain, XYTree, XYTwoPhase, XYAutoGen, Snake, Auto2D:
		return true
	}
	return false
}

func validOp(op ReduceOp) bool {
	switch op {
	case Sum, Max, Min:
		return true
	}
	return false
}

// Validate reports whether the Shape names a runnable collective: a
// known kind, positive geometry and vector length, an algorithm the kind
// accepts, and a known reduction operator where one applies. Fields a
// kind never consults (the 2D algorithm of a 1D reduce, say) are ignored,
// mirroring how plan keys canonicalise them. All failures wrap
// ErrBadShape.
func (sh Shape) Validate() error {
	if sh.B < 1 {
		return badShape("%s: vector length B = %d, want >= 1", sh.Kind, sh.B)
	}
	switch sh.Kind {
	case KindReduce, KindAllReduce, KindAllReduceMidRoot:
		if sh.P < 1 {
			return badShape("%s: P = %d PEs, want >= 1", sh.Kind, sh.P)
		}
		if !valid1DAlg(sh.Kind, sh.Alg) {
			return badShape("%s: algorithm %q", sh.Kind, sh.Alg)
		}
		if !validOp(sh.Op) {
			return badShape("%s: reduction op %v", sh.Kind, sh.Op)
		}
		// The ring is a chunked algorithm underneath (reduce-scatter then
		// allgather): same builder, same need for a real split.
		if sh.Alg == Ring || sh.Alg == RingDP {
			if sh.P < 2 {
				return badShape("%s: ring over P = %d PEs, want >= 2", sh.Kind, sh.P)
			}
			if sh.B < sh.P {
				return badShape("%s: ring splits B = %d over P = %d PEs into empty chunks, want B >= P", sh.Kind, sh.B, sh.P)
			}
		}
	case KindReduceScatter, KindScatter, KindGather, KindAllGather:
		// The chunked kinds need a real split into non-empty chunks: the
		// comm builders reject a single PE and B < P, so Validate does too
		// (typed, instead of the untyped compile error).
		if sh.P < 2 {
			return badShape("%s: P = %d PEs, want >= 2", sh.Kind, sh.P)
		}
		if sh.B < sh.P {
			return badShape("%s: B = %d split over P = %d PEs leaves empty chunks, want B >= P", sh.Kind, sh.B, sh.P)
		}
		if sh.Kind == KindReduceScatter && !validOp(sh.Op) {
			return badShape("%s: reduction op %v", sh.Kind, sh.Op)
		}
	case KindBroadcast:
		if sh.P < 1 {
			return badShape("%s: P = %d PEs, want >= 1", sh.Kind, sh.P)
		}
	case KindReduce2D, KindAllReduce2D:
		if sh.Width < 1 || sh.Height < 1 {
			return badShape("%s: %dx%d grid, want >= 1x1", sh.Kind, sh.Width, sh.Height)
		}
		if !valid2DAlg(sh.Alg2D) {
			return badShape("%s: 2D algorithm %q", sh.Kind, sh.Alg2D)
		}
		if !validOp(sh.Op) {
			return badShape("%s: reduction op %v", sh.Kind, sh.Op)
		}
	case KindBroadcast2D:
		if sh.Width < 1 || sh.Height < 1 {
			return badShape("%s: %dx%d grid, want >= 1x1", sh.Kind, sh.Width, sh.Height)
		}
	default:
		return badShape("unknown kind %q", sh.Kind)
	}
	return nil
}

// checkInputs validates that inputs matches the Shape's arity — the
// check that used to happen piecemeal (or not at all: ragged vectors
// once reached the core layers unvalidated) and now guards every
// execution verb with a typed error.
func (sh Shape) checkInputs(inputs [][]float32) error {
	switch sh.Kind {
	case KindBroadcast, KindBroadcast2D, KindScatter:
		if len(inputs) != 1 || len(inputs[0]) != sh.B {
			return badShape("%s wants one %d-element vector, got %d vector(s)", sh.Kind, sh.B, len(inputs))
		}
	case KindGather, KindAllGather:
		if len(inputs) != sh.P {
			return badShape("%s wants %d chunks, got %d", sh.Kind, sh.P, len(inputs))
		}
		// core.CheckChunks is the one source of the canonical chunk-split
		// rule; this layer only adds the typed wrap.
		if b, err := core.CheckChunks(inputs); err != nil {
			return badShape("%s: %v", sh.Kind, err)
		} else if b != sh.B {
			return badShape("%s: chunks total %d elements, want %d", sh.Kind, b, sh.B)
		}
	case KindReduce2D, KindAllReduce2D:
		return sh.checkVectors(inputs, sh.Width*sh.Height)
	default:
		return sh.checkVectors(inputs, sh.P)
	}
	return nil
}

func (sh Shape) checkVectors(inputs [][]float32, n int) error {
	if len(inputs) != n {
		return badShape("%s wants %d input vectors, got %d", sh.Kind, n, len(inputs))
	}
	for i, v := range inputs {
		if len(v) != sh.B {
			return badShape("%s: vector %d has length %d, want %d", sh.Kind, i, len(v), sh.B)
		}
	}
	return nil
}

// checkRun bundles the validation every execution verb performs before
// touching the compiler.
func (sh Shape) checkRun(inputs [][]float32) error {
	if err := sh.Validate(); err != nil {
		return err
	}
	return sh.checkInputs(inputs)
}

// Run executes the collective named by sh on the fabric simulator: the
// one-shot entry point, compiling the program for this call alone. For
// broadcast and scatter kinds inputs is the root vector wrapped in a
// one-element slice; for gather kinds the per-PE chunks (sized per
// Chunks); otherwise one length-B vector per PE. ctx is observed before
// the compile and before the simulation — a simulation already running
// is never abandoned on this one-shot path (Session and Tenant verbs
// have full cancellation). Use a Session (or Tenant) Run to compile
// once and replay.
func Run(ctx context.Context, sh Shape, inputs [][]float32, opts ...RunOption) (*Report, error) {
	c := resolveOpts(opts)
	if err := sh.checkRun(inputs); err != nil {
		return nil, err
	}
	return runValidated(ctx, sh, inputs, c)
}

// runValidated is the tail of Run after validation — shared with Submit
// so the async path validates exactly once (synchronously).
func runValidated(ctx context.Context, sh Shape, inputs [][]float32, c callOpts) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := plan.Compile(sh.request(c.opt))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil { // the compile can be the slow part
		return nil, err
	}
	return p.ExecuteOpts(inputs, c.execOpts())
}

// Submit is Run returning immediately with a Future. Validation happens
// synchronously (a malformed shape comes back already resolved); the
// one-shot compile and simulation then run on their own goroutine. ctx
// has the same one-shot semantics as Run: it short-circuits before the
// compile and before the simulation, but cannot abandon a simulation
// mid-flight — use Session.Submit or Tenant.Submit for that.
func Submit(ctx context.Context, sh Shape, inputs [][]float32, opts ...RunOption) *Future {
	c := resolveOpts(opts)
	if err := sh.checkRun(inputs); err != nil {
		return plan.Fail(err)
	}
	return plan.Go(func() (*Report, error) {
		return runValidated(ctx, sh, inputs, c)
	})
}

// RunBatch executes the collective named by sh once per entry of
// batches — batches[i] is one Run's worth of inputs — compiling the
// program once and holding one simulator instance across the whole
// batch, so the per-run fixed cost (input binding, result assembly) is
// amortised. Combine with WithColumnarResult to also skip every per-run
// result map. Reports come back in batch order.
func RunBatch(ctx context.Context, sh Shape, batches [][][]float32, opts ...RunOption) ([]*Report, error) {
	c := resolveOpts(opts)
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	for i, inputs := range batches {
		if err := sh.checkInputs(inputs); err != nil {
			return nil, fmt.Errorf("batch entry %d: %w", i, err)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := plan.Compile(sh.request(c.opt))
	if err != nil {
		return nil, err
	}
	// ExecuteBatch re-checks ctx between entries, so a cancelled caller
	// pays for at most the replay in flight, not the whole batch.
	return p.ExecuteBatch(ctx, batches, c.execOpts())
}

// Predict returns the performance model's cycle estimate for sh (Eq. 1
// instantiated per kind: §5's lemmas in 1D, §7's compositions in 2D, the
// extension estimates for the chunked kinds). Like the model itself it
// is total: shapes naming unknown kinds or algorithms estimate to NaN or
// 0 rather than erroring — Validate is the place to vet a Shape.
func Predict(sh Shape, opts ...Option) float64 {
	c := resolveOpts(opts)
	pr := params(c.opt)
	tr := pr.TR
	switch sh.Kind {
	case KindReduce:
		return core.PredictReduce1D(sh.Alg, sh.P, sh.B, tr)
	case KindAllReduce:
		return core.PredictAllReduce1D(sh.Alg, sh.P, sh.B, tr)
	case KindBroadcast:
		return pr.Broadcast1D(sh.P, sh.B)
	case KindReduce2D:
		return core.PredictReduce2D(sh.Alg2D, sh.Width, sh.Height, sh.B, tr)
	case KindAllReduce2D:
		return core.PredictAllReduce2D(sh.Alg2D, sh.Width, sh.Height, sh.B, tr)
	case KindBroadcast2D:
		return pr.Broadcast2D(sh.Height, sh.Width, sh.B)
	case KindScatter:
		return pr.Scatter(sh.P, sh.B)
	case KindGather:
		return pr.Gather(sh.P, sh.B)
	case KindReduceScatter:
		return pr.ReduceScatter(sh.P, sh.B)
	case KindAllGather:
		return pr.AllGather(sh.P, sh.B)
	case KindAllReduceMidRoot:
		return pr.MidRootAllReduce(string(sh.Alg), sh.P, sh.B)
	}
	return math.NaN()
}

// Bound returns a runtime lower bound for sh in cycles — the floor every
// algorithm's measured cycles sits above, and the denominator of the
// paper's optimality ratios (Figure 1). Per kind:
//
//   - the 1D reduce family (Reduce, AllReduce, AllReduceMidRoot) uses
//     the paper's T*(P,B) bound (§5.6); an AllReduce contains a reduce,
//     so T* bounds it too;
//   - the 2D reduce family uses Lemma 7.2;
//   - broadcasts use Lemma 4.1 / 7.1, which the flooding broadcast
//     achieves exactly — for them Bound equals Predict;
//   - the chunked kinds use the root-serialisation bound: B·(P-1)/P
//     wavelets must cross one ramp, plus the 2·T_R+1 latency floor.
//
// Unknown kinds bound to NaN.
func Bound(sh Shape, opts ...Option) float64 {
	c := resolveOpts(opts)
	pr := params(c.opt)
	tr := pr.TR
	switch sh.Kind {
	case KindReduce, KindAllReduce, KindAllReduceMidRoot:
		return core.LowerBound1D(sh.P, sh.B, tr)
	case KindReduce2D, KindAllReduce2D:
		return pr.LowerBound2D(sh.Height, sh.Width, sh.B)
	case KindBroadcast:
		return pr.Broadcast1D(sh.P, sh.B)
	case KindBroadcast2D:
		return pr.Broadcast2D(sh.Height, sh.Width, sh.B)
	case KindScatter, KindGather, KindReduceScatter, KindAllGather:
		if sh.P <= 1 {
			return 0
		}
		return float64(sh.B)*float64(sh.P-1)/float64(sh.P) + float64(2*tr) + 1
	}
	return math.NaN()
}

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

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
)

// ErrBadShape is wrapped by every shape- and input-validation failure:
// unknown kinds, non-positive geometry, algorithms a kind does not
// accept, and input slices whose arity does not match the Shape (ragged
// vectors, wrong PE count, mis-sized chunks). Test with
// errors.Is(err, wse.ErrBadShape).
var ErrBadShape = plan.ErrBadShape

// Option configures a single Run, Predict, Bound, Submit or RunBatch
// call.
type Option func(*callOpts)

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

// Validate reports whether the Shape names a runnable collective: a
// known kind, positive geometry and vector length, an algorithm the kind
// accepts, and a known reduction operator where one applies — each read
// off the kind's row of the table in internal/plan/kinds.go. Fields a
// kind never consults (the 2D algorithm of a 1D reduce, say) are ignored,
// mirroring how plan keys canonicalise them. All failures wrap
// ErrBadShape.
func (sh Shape) Validate() error { return sh.request(Options{}).Validate() }

// checkInputs validates that inputs matches the layout of the Shape's
// kind, guarding every execution verb with a typed error.
func (sh Shape) checkInputs(inputs [][]float32) error {
	return sh.request(Options{}).CheckInputs(inputs)
}

// Inputs builds one run's worth of inputs for sh in the layout its kind
// takes — the root vector wrapped in a one-element slice for broadcast and
// scatter kinds, the per-PE chunks (sized per Chunks) for gather kinds,
// otherwise one length-B vector per PE in row-major order — asking fill
// for each vector in turn. sh must be valid.
func (sh Shape) Inputs(fill func(n int) []float32) [][]float32 {
	return sh.request(Options{}).Inputs(fill)
}

// Chunks returns the balanced chunk offsets and sizes the chunked kinds
// (Scatter, Gather, ReduceScatter, AllGather) use for b elements over p
// PEs: chunk j spans [off[j], off[j]+sz[j]) and belongs to PE j.
func Chunks(p, b int) (off, sz []int) { return core.Chunks(p, b) }

// Resolve returns the Shape a Run of sh executes under the call's options:
// an Auto or Auto2D algorithm replaced by what the kind's row of the table
// picks from the model — the same function the compiler and Predict call.
// The choice ranges over every schedule that computes the kind, so the Kind
// can move too: an Auto AllReduce the model roots in the middle resolves to
// KindAllReduceMidRoot with its tree (or stays KindAllReduce with Ring), and
// the algorithm-free ReduceScatter and AllGather come back with Alg saying
// which of their schedules runs. ReduceScatter has two: Ring, or the reduce
// tree before the Scatter from the leftmost PE. AllGather has three: Ring;
// Star, a Gather of both halves into the middle PE before its flood; or
// "gather-flood", every PE flooding its own chunk on its turn. The resolved
// Shape is valid and runs the same program; a Shape naming a concrete
// algorithm comes back unchanged.
func (sh Shape) Resolve(opts ...Option) Shape {
	r := sh.request(resolveOpts(opts).opt).Resolve()
	sh.Kind, sh.Alg, sh.Alg2D = r.Kind, r.Alg, r.Alg2D
	return sh
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
// the compile, and a simulation it outlives is abandoned with ctx's error
// (a deadline's still matches context.DeadlineExceeded), as on the Session
// and Tenant verbs. Use a Session (or Tenant) Run to compile once and
// replay.
func Run(ctx context.Context, sh Shape, inputs [][]float32, opts ...Option) (*Report, error) {
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
	return p.ExecuteCtx(ctx, inputs, c.execOpts())
}

// Submit is Run returning immediately with a Future. Validation happens
// synchronously (a malformed shape comes back already resolved); the
// one-shot compile and simulation then run on their own goroutine, under
// ctx exactly as Run is.
func Submit(ctx context.Context, sh Shape, inputs [][]float32, opts ...Option) *Future {
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
// program once and, for more than one entry, simulating it once: the first
// entry records the replay tape and every entry walks it, so the per-run
// fixed cost (input binding, result assembly) is amortised and the cycle
// loop is paid once. Combine with WithColumnarResult to also skip every
// per-run result map. Reports come back in batch order.
func RunBatch(ctx context.Context, sh Shape, batches [][][]float32, opts ...Option) ([]*Report, error) {
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

// Predict returns the performance model's cycle estimate for a Run of sh
// under the call's options (Eq. 1 instantiated per kind: §5's forms and the
// trees' critical paths in 1D, §7's compositions in 2D, the extension
// estimates for the chunked kinds). The Shape is resolved first, exactly as
// the compiler resolves it — Auto over every schedule of the kind — so
// Predict(sh) is that Run's Report.Predicted bit for bit. Like the model itself it is total: shapes
// naming unknown kinds or algorithms estimate to NaN or 0 rather than
// erroring — Validate is the place to vet a Shape.
func Predict(sh Shape, opts ...Option) float64 {
	return sh.request(resolveOpts(opts).opt).Predict()
}

// Bound returns a runtime lower bound for sh in cycles — the floor every
// algorithm's measured cycles sits above, and the denominator of the
// paper's optimality ratios (Figure 1). Per kind:
//
//   - the 1D reduce family (Reduce, AllReduce, AllReduceMidRoot) uses
//     the paper's T*(P,B) bound (§5.6); an AllReduce contains a reduce,
//     so T* bounds it too;
//   - the 2D reduce family uses Lemma 7.2;
//   - broadcasts use Lemma 4.1 / 7.1 as the paper states them; the
//     flooding broadcast achieves them but for the control wavelet behind
//     the data, so Predict is one cycle above Bound;
//   - the chunked kinds use the root-serialisation bound: B·(P-1)/P
//     wavelets must cross one ramp, plus the 2·T_R+1 latency floor.
//
// Unknown kinds bound to NaN.
func Bound(sh Shape, opts ...Option) float64 {
	return sh.request(resolveOpts(opts).opt).Bound()
}

package workload

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	wse "repro"
	"repro/internal/obs"
)

// Runner is the execution surface a workload runs on. wse.Session and
// wse.Tenant both satisfy it, so a workload runs under the default
// tenant or any QoS tenant without the executor knowing; OneShot adapts
// the package-level verbs for sessionless reference runs.
type Runner interface {
	Run(ctx context.Context, sh wse.Shape, inputs [][]float32, opts ...wse.Option) (*wse.Report, error)
	Submit(ctx context.Context, sh wse.Shape, inputs [][]float32, opts ...wse.Option) *wse.Future
}

// OneShot is a Runner over the package-level verbs: every step compiles
// its own plan and runs outside any session — the reference execution
// the DAG path is property-tested bit-identical against. opt plays the
// role of the session options a Session-backed Runner would supply.
func OneShot(opt wse.Options) Runner { return oneShot{opt: opt} }

type oneShot struct{ opt wse.Options }

func (o oneShot) Run(ctx context.Context, sh wse.Shape, inputs [][]float32, opts ...wse.Option) (*wse.Report, error) {
	return wse.Run(ctx, sh, inputs, append([]wse.Option{wse.WithOptions(o.opt)}, opts...)...)
}

func (o oneShot) Submit(ctx context.Context, sh wse.Shape, inputs [][]float32, opts ...wse.Option) *wse.Future {
	return wse.Submit(ctx, sh, inputs, append([]wse.Option{wse.WithOptions(o.opt)}, opts...)...)
}

// StepResult is one executed step: its Report plus the wall-clock the
// step occupied from submission to completion (queue wait included).
type StepResult struct {
	Step   *Step
	Report *wse.Report
	Wall   time.Duration
}

// Result is a completed workload run. Wall is the whole run's
// wall-clock; StepSum the sum of per-step wall-clocks — with
// dependency-aware overlap Wall sits below StepSum whenever independent
// steps actually ran concurrently.
type Result struct {
	Workload string
	Steps    []StepResult // in declaration order
	Wall     time.Duration
	StepSum  time.Duration
}

// Cycles sums the simulated cycle counts of every step — the workload's
// fabric cost, as opposed to Wall, its host cost.
func (r *Result) Cycles() int64 {
	var total int64
	for _, sr := range r.Steps {
		if sr.Report != nil {
			total += sr.Report.Cycles
		}
	}
	return total
}

// Exec runs the workload's DAG on r with dependency-aware overlap:
// every step is submitted as soon as its dependencies complete, so
// independent steps hold Submit futures concurrently; joins Wait before
// dependents fire; each parent's result folds into its dependents'
// inputs (deterministically, in After order). Each step runs inside a
// workload.step span (step + kind attrs) when the context carries a
// live trace, so a traced run renders as one tree.
//
// Results are bit-identical to ExecSequential on the same Runner — the
// DAG changes when steps run, never what they compute.
func Exec(ctx context.Context, r Runner, w *Workload) (*Result, error) {
	return exec(ctx, r, w, false)
}

// ExecSequential runs the workload one step at a time in topological
// (declaration-biased) order through Runner.Run — the reference
// semantics Exec's overlapped schedule is property-tested against.
func ExecSequential(ctx context.Context, r Runner, w *Workload) (*Result, error) {
	return exec(ctx, r, w, true)
}

func exec(ctx context.Context, r Runner, w *Workload, sequential bool) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	order, err := w.topo()
	if err != nil {
		return nil, err
	}
	n := len(w.steps)
	results := make([]StepResult, n) // by declaration index
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	start := time.Now()

	runStep := func(st *Step) {
		idx := w.index[st.Name]
		defer close(done[idx])
		// Join: wait for every dependency, in After order, and collect the
		// parent reports the step's inputs fold in.
		parents := make([]*wse.Report, 0, len(st.After))
		for _, dep := range st.After {
			di := w.index[dep]
			select {
			case <-done[di]:
			case <-ctx.Done():
				errs[idx] = ctx.Err()
				return
			}
			if errs[di] != nil {
				errs[idx] = fmt.Errorf("dependency %q failed: %w", dep, errs[di])
				return
			}
			parents = append(parents, results[di].Report)
		}
		sctx, span := obs.Start(ctx, "workload.step")
		span.SetAttr("step", st.Name)
		span.SetAttr("kind", string(st.Shape.Kind))
		if st.Func != "" {
			span.SetAttr("func", st.Func)
		}
		inputs := stepInputs(st, parents)
		stepStart := time.Now()
		var rep *wse.Report
		var err error
		if sequential {
			rep, err = r.Run(sctx, st.Shape, inputs)
		} else {
			rep, err = r.Submit(sctx, st.Shape, inputs).Wait()
		}
		span.SetError(err)
		span.End()
		if err != nil {
			errs[idx] = err
			return
		}
		results[idx] = StepResult{Step: st, Report: rep, Wall: time.Since(stepStart)}
	}

	if sequential {
		for _, st := range order {
			runStep(st)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(n)
		for _, st := range order {
			st := st
			go func() {
				defer wg.Done()
				runStep(st)
			}()
		}
		wg.Wait()
	}

	res := &Result{Workload: w.Name, Steps: results, Wall: time.Since(start)}
	for i, st := range w.steps {
		if errs[i] != nil {
			// Report the first failure in declaration order; dependency-
			// propagated failures name the root cause through wrapping.
			return nil, fmt.Errorf("workload %s: step %q: %w", w.Name, st.Name, errs[i])
		}
		res.StepSum += results[i].Wall
	}
	return res, nil
}

// stepInputs derives a step's input vectors: a deterministic
// pseudo-random base seeded by the step's name, with each parent
// report's result vector folded in (After order) so data genuinely
// flows along the DAG's edges. Both executors call exactly this, which
// is what makes overlapped and sequential runs bit-identical.
func stepInputs(st *Step, parents []*wse.Report) [][]float32 {
	inputs := baseInputs(st.Shape, st.Name)
	for _, rep := range parents {
		if rep == nil || len(rep.Root) == 0 {
			continue
		}
		f := rep.Root
		inv := 1 / float32(len(f))
		for off, v := range inputs {
			for j := range v {
				v[j] += f[(off+j)%len(f)] * inv
			}
		}
	}
	return inputs
}

// baseInputs builds the deterministic input set for sh seeded by seed:
// the layout its kind takes (Shape.Inputs), filled from a seeded PRNG in
// input order.
func baseInputs(sh wse.Shape, seed string) [][]float32 {
	h := fnv.New64a()
	h.Write([]byte(seed))
	x := h.Sum64()
	next := func() float32 {
		x = x*6364136223846793005 + 1442695040888963407
		return float32(int32(uint32(x>>32))) / (1 << 31)
	}
	return sh.Inputs(func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = next()
		}
		return v
	})
}

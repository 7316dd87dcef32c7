package workload

import (
	"errors"
	"fmt"

	wse "repro"
)

// ErrBadWorkload is wrapped by every workload-validation failure —
// unknown step functions, duplicate or dangling step names, dependency
// cycles, malformed files. Test with errors.Is(err, ErrBadWorkload); the
// message names the offending step or line.
var ErrBadWorkload = errors.New("workload: bad workload")

func badWorkload(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadWorkload, fmt.Sprintf(format, args...))
}

// Step is one node of a workload DAG: a named collective Shape plus the
// steps whose results it consumes.
type Step struct {
	// Name is the step's unique name within the workload — the target of
	// other steps' After lists.
	Name string
	// Func is the registered step-function name the step was declared
	// through ("" when the Shape was supplied directly via the Builder).
	Func string
	// Shape is the collective the step runs.
	Shape wse.Shape
	// After lists the steps whose completion (and results) this step
	// depends on, in declaration order — the order parent results fold
	// into this step's inputs.
	After []string
}

// Workload is a validated-on-demand DAG of steps. Build one with the
// Builder or Parse; the zero value is empty and valid.
type Workload struct {
	// Name labels the workload in results and spans.
	Name  string
	steps []*Step
	index map[string]int
}

// Steps returns the workload's steps in declaration order. The slice is
// shared — treat it as read-only.
func (w *Workload) Steps() []*Step { return w.steps }

// Step returns the named step, or nil.
func (w *Workload) Step(name string) *Step {
	if i, ok := w.index[name]; ok {
		return w.steps[i]
	}
	return nil
}

// add appends a step, rejecting duplicate names.
func (w *Workload) add(st *Step) error {
	if st.Name == "" {
		return badWorkload("step with empty name")
	}
	if _, dup := w.index[st.Name]; dup {
		return badWorkload("duplicate step name %q (use name= to disambiguate repeated step functions)", st.Name)
	}
	if w.index == nil {
		w.index = map[string]int{}
	}
	w.index[st.Name] = len(w.steps)
	w.steps = append(w.steps, st)
	return nil
}

// Validate vets the workload: every step declared through a function
// names a registered one, every After reference resolves, every Shape is
// runnable, and the dependency graph is acyclic. All failures wrap
// ErrBadWorkload (Shape failures also wrap wse.ErrBadShape).
func (w *Workload) Validate() error {
	for _, st := range w.steps {
		if st.Func != "" {
			if _, ok := LookupFunc(st.Func); !ok {
				return badWorkload("step %q: unknown step function %q", st.Name, st.Func)
			}
		}
		if err := st.Shape.Validate(); err != nil {
			return fmt.Errorf("%w: step %q: %w", ErrBadWorkload, st.Name, err)
		}
		for _, dep := range st.After {
			if _, ok := w.index[dep]; !ok {
				return badWorkload("step %q: after=%s references no step", st.Name, dep)
			}
		}
	}
	if _, err := w.topo(); err != nil {
		return err
	}
	return nil
}

// topo returns the steps in a dependency-respecting order: Kahn's
// algorithm with declaration order breaking ties, so the order is
// deterministic and sequential execution visits steps the way the file
// declares them whenever dependencies allow. A cycle returns an
// ErrBadWorkload naming its members.
func (w *Workload) topo() ([]*Step, error) {
	n := len(w.steps)
	indeg := make([]int, n)
	out := make([][]int, n) // dependents of each step
	for i, st := range w.steps {
		for _, dep := range st.After {
			j, ok := w.index[dep]
			if !ok {
				return nil, badWorkload("step %q: after=%s references no step", st.Name, dep)
			}
			indeg[i]++
			out[j] = append(out[j], i)
		}
	}
	order := make([]*Step, 0, n)
	done := make([]bool, n)
	for len(order) < n {
		next := -1
		for i := 0; i < n; i++ {
			if !done[i] && indeg[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			var cyc []string
			for i, st := range w.steps {
				if !done[i] {
					cyc = append(cyc, st.Name)
				}
			}
			return nil, badWorkload("dependency cycle among steps %v", cyc)
		}
		done[next] = true
		order = append(order, w.steps[next])
		for _, j := range out[next] {
			indeg[j]--
		}
	}
	return order, nil
}

// Builder accumulates steps into a Workload. Errors are deferred to
// Build so declarations chain fluently.
type Builder struct {
	w   *Workload
	err error
}

// New starts a workload named name.
func New(name string) *Builder {
	return &Builder{w: &Workload{Name: name}}
}

// Step declares a step through a registered step function: the function
// name resolves the Shape from params, and after lists the steps whose
// results feed this one. The step's own name defaults to fn; pass a
// "name" key in params to disambiguate repeated functions.
func (b *Builder) Step(fn string, params Params, after ...string) *Builder {
	if b.err != nil {
		return b
	}
	name := fn
	if params != nil {
		if n, ok := params["name"]; ok {
			name = n
			params = cloneParams(params)
			delete(params, "name")
		}
	}
	f, ok := LookupFunc(fn)
	if !ok {
		b.err = badWorkload("step %q: unknown step function %q", name, fn)
		return b
	}
	sh, err := f.Fn(params)
	if err != nil {
		b.err = badWorkload("step %q: %v", name, err)
		return b
	}
	b.err = b.w.add(&Step{Name: name, Func: fn, Shape: sh, After: after})
	return b
}

// StepShape declares a step from an explicit Shape, bypassing the
// registry — the Go-native spelling for shapes no registered function
// produces.
func (b *Builder) StepShape(name string, sh wse.Shape, after ...string) *Builder {
	if b.err != nil {
		return b
	}
	b.err = b.w.add(&Step{Name: name, Shape: sh, After: after})
	return b
}

// Build validates and returns the workload.
func (b *Builder) Build() (*Workload, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.w.Validate(); err != nil {
		return nil, err
	}
	return b.w, nil
}

func cloneParams(p Params) Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Package workload is the declarative scenario layer over the Shape-first
// verbs: real uses of the fabric are compositions — a training step is an
// allreduce after a gemv, a stencil sweep interleaves halo broadcasts —
// and this package turns such compositions into a DAG of Shapes executed
// through a Session with dependency-aware overlap.
//
// The front door is a registry of named step functions in the DeclFunc
// idiom (mumax3's engine registers its script surface the same way): each
// registered name maps step parameters (p=512 B=16 alg=tree ...) to a
// wse.Shape, and carries a doc string the CLI can print. A workload is
// declared either through the Builder API or a small line-oriented text
// file:
//
//	workload train-step
//	step gemv p=256 B=64
//	step allreduce p=256 B=64 after=gemv
//
// Validate rejects malformed workloads (unknown step functions, dangling
// after= references, dependency cycles) with errors wrapping the
// ErrBadWorkload sentinel; Exec runs a valid workload through Submit
// futures so independent steps overlap, joins Wait before dependents
// fire, and parent results flow into child inputs deterministically.
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	wse "repro"
	"repro/internal/fabric"
	"repro/internal/plan"
)

// Params carries one step's key=value parameters, keys lowercased. The
// reserved keys (name, after) are consumed by the workload layer and
// never reach a StepFunc.
type Params map[string]string

// Int returns the integer parameter key, or def when absent.
func (p Params) Int(key string, def int) (int, error) {
	s, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("param %s=%q: want an integer", key, s)
	}
	return v, nil
}

// Str returns the string parameter key, or def when absent.
func (p Params) Str(key, def string) string {
	if s, ok := p[key]; ok {
		return s
	}
	return def
}

// Grid parses the WxH grid parameter key, or returns the defaults.
func (p Params) Grid(key string, defW, defH int) (w, h int, err error) {
	s, ok := p[key]
	if !ok {
		return defW, defH, nil
	}
	if n, err := fmt.Sscanf(s, "%dx%d", &w, &h); n != 2 || err != nil {
		return 0, 0, fmt.Errorf("param %s=%q: want WxH", key, s)
	}
	return w, h, nil
}

// StepFunc compiles one step's parameters into the Shape the step runs.
type StepFunc func(Params) (wse.Shape, error)

// Func is one registry entry: a named step function and its doc line.
type Func struct {
	Name string
	Fn   StepFunc
	Doc  string
}

var (
	regMu    sync.RWMutex
	registry = map[string]Func{}
)

// Register declares a named step function, in the DeclFunc idiom: the
// name becomes a verb of the workload file format and the Builder, doc
// its one-line help. Empty names, nil functions and duplicate
// registrations panic — registration is init-time wiring, not input.
func Register(name string, fn StepFunc, doc string) {
	if name == "" || fn == nil {
		panic("workload: Register with empty name or nil func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("workload: Register called twice for " + name)
	}
	registry[name] = Func{Name: name, Fn: fn, Doc: doc}
}

// LookupFunc returns the registered step function for name. A collective
// kind answers to either of its names, whatever the case (plan.LookupKind):
// "reduce", "reduce1d" and "Reduce" are the same step function.
func LookupFunc(name string) (Func, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	if !ok {
		if ki, isKind := plan.LookupKind(name); isKind {
			f, ok = registry[ki.Name]
		}
	}
	return f, ok
}

// Funcs lists every registered step function, sorted by name — the
// CLI's `workload funcs` help surface.
func Funcs() []Func {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Func, 0, len(registry))
	for _, f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkKeys rejects parameter keys a step function does not consume, so
// a typo (algo= for alg=) fails the build instead of silently running
// the default.
func checkKeys(p Params, allowed ...string) error {
	for k := range p {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown param %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// kindFunc builds the StepFunc of a collective kind from its row of the
// kind table: p= PEs or grid=WxH by geometry, b= vector length, alg= where
// the kind takes one, op= where one applies.
func kindFunc(ki *plan.KindInfo) StepFunc {
	allowed := []string{"p", "b"}
	if ki.Grid {
		allowed[0] = "grid"
	}
	if ki.Algs != nil || ki.Algs2D != nil {
		allowed = append(allowed, "alg")
	}
	if ki.HasOp {
		allowed = append(allowed, "op")
	}
	return func(pr Params) (wse.Shape, error) {
		if err := checkKeys(pr, allowed...); err != nil {
			return wse.Shape{}, err
		}
		sh := wse.Shape{Kind: ki.Kind}
		var err error
		if ki.Grid {
			sh.Width, sh.Height, err = pr.Grid("grid", 16, 16)
		} else {
			sh.P, err = pr.Int("p", 64)
		}
		if err != nil {
			return wse.Shape{}, err
		}
		if sh.B, err = pr.Int("b", 64); err != nil {
			return wse.Shape{}, err
		}
		if ki.Algs != nil {
			sh.Alg = wse.Algorithm(pr.Str("alg", string(wse.Auto)))
		}
		if ki.Algs2D != nil {
			sh.Alg2D = wse.Algorithm2D(pr.Str("alg", string(wse.Auto2D)))
		}
		if ki.HasOp {
			if sh.Op, err = fabric.ParseReduceOp(pr.Str("op", "sum")); err != nil {
				return wse.Shape{}, fmt.Errorf("param op: %v", err)
			}
		}
		return sh, nil
	}
}

// The built-in step vocabulary: one function per row of the kind table,
// under the row's short name and doc line, plus domain-named aliases
// (gemv's inner reduction, the halo broadcast of a stencil sweep) so
// workload files read as the scenario they model.
func init() {
	for i := range plan.Kinds {
		ki := &plan.Kinds[i]
		Register(ki.Name, kindFunc(ki), ki.Doc)
	}
	Register("gemv", kindFunc(plan.InfoOf(wse.KindReduce)),
		"matrix-vector product: the row-wise inner reduction of a GEMV (alias of reduce)")
	Register("halo", kindFunc(plan.InfoOf(wse.KindBroadcast)),
		"stencil halo exchange: flood the boundary vector across the row (alias of broadcast)")
}

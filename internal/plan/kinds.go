package plan

// The collective-kind table. The paper defines each collective as one
// bundle — a program generator, a model lemma (§5 in 1D, §6.1 for the
// middle root, §7 in 2D) and a bound (§5.6, Lemma 7.2) — and this file is
// where the repo spells that bundle out: one row per Kind, declared once
// and read by every layer. Key canonicalisation, validation, the compiler,
// the input binding, Predict and Bound in this package; the public Shape
// verbs, the workload step vocabulary, the CLI's -collective flag, the wire
// decoder and the figure harness outside it.
// Adding a kind is one row here plus its builder and model function.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/model"
)

// ErrBadShape is wrapped by every request- and input-validation failure:
// unknown kinds, non-positive geometry, algorithms a kind does not accept,
// and input slices that do not match the kind's layout. The public package
// re-exports it as wse.ErrBadShape.
var ErrBadShape = errors.New("wse: bad shape")

func badShape(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadShape, fmt.Sprintf(format, args...))
}

// InputLayout says what a run of a kind takes as inputs.
type InputLayout uint8

const (
	// RootVector is one B-element vector, bound to the root PE.
	RootVector InputLayout = iota
	// VectorPerPE is one B-element vector per PE, in row-major order.
	VectorPerPE
	// ChunkPerPE is one chunk per PE, sized by core.Chunks(P, B).
	ChunkPerPE
)

// KindInfo is one row of the kind table.
type KindInfo struct {
	// Kind is the key name: the string in plan keys, store frames and on
	// the wire. Name is the short name the CLI's -collective flag and
	// workload files use; LookupKind resolves either.
	Kind Kind
	Name string
	// Doc is the one-line help of the kind.
	Doc string
	// Grid kinds run on a Width×Height grid; the others on a row of P PEs.
	Grid bool
	// Algs / Algs2D list the concrete algorithms the kind accepts besides
	// Auto / Auto2D; both nil for the algorithm-free kinds, whose request
	// names no algorithm and whose resolved one says which schedule runs.
	Algs   []core.Pattern
	Algs2D []core.Pattern2D
	// HasOp kinds combine values with Request.Op.
	HasOp bool
	// Chunked kinds split B elements into one non-empty chunk per PE, so
	// they need P >= 2 and B >= P.
	Chunked bool
	// Inputs is the kind's input layout.
	Inputs InputLayout

	// placed kinds bind chunk j at its core.Chunks offset of the B-element
	// image every PE ends up holding, not at the start of PE j's accumulator.
	placed bool
	// trees records the reduction tree(s) of a compiled plan's resolved
	// algorithm; nil when no schedule of the kind reduces over a tree.
	trees func(p *Plan, pr model.Params) error
	// auto replaces an Auto algorithm — for the algorithm-free kinds, none —
	// by the model's choice over every schedule that computes the kind, and
	// may move the request to the row whose program that is; nil when the
	// kind has nothing to choose. It returns the choice's price, which is
	// predict's of the resolved request, and false when it chose nothing.
	auto func(r *Request, pr model.Params) (float64, bool)
	// build lowers a resolved request into spec.
	build func(spec *fabric.Spec, r Request, pr model.Params) error
	// predict is the kind's model lemma and bound its runtime lower bound,
	// both in cycles.
	predict, bound func(r Request, pr model.Params) float64
}

// patterns1DRing is the 1D family of the one kind with a ring program.
var patterns1DRing = append(slices.Clone(core.Patterns1D), core.Ring, core.RingDP)

// patternsMidRoot is the family of the middle-root AllReduce: the halves
// under each tree pattern, and the fold.
var patternsMidRoot = append(slices.Clone(core.Patterns1D), core.Fold)

func auto1D(r *Request, pr model.Params) (t float64, ok bool) {
	if r.Alg == core.Auto {
		r.Alg, t = core.BestReduce1D(r.P, r.B, pr)
		ok = true
	}
	return t, ok
}

// autoAllReduce1D ranges over the end root, the middle root — which is the
// allreduce-midroot row's program, so the request moves there — and the ring.
func autoAllReduce1D(r *Request, pr model.Params) (float64, bool) {
	if r.Alg != core.Auto {
		return 0, false
	}
	alg, midRoot, t := core.BestAllReduce1D(r.P, r.B, pr)
	if midRoot {
		r.Kind = AllReduceMidRoot
	}
	r.Alg = alg
	return t, true
}

func auto2D(r *Request, pr model.Params) (t float64, ok bool) {
	if r.Alg2D == core.Auto2D {
		r.Alg2D, t = core.BestReduce2D(r.Width, r.Height, r.B, pr)
		ok = true
	}
	return t, ok
}

// patterns2DReduce is the 2D Reduce family: the paper's patterns, this
// repository's X-Y composition, and Auto-Gen's tree over the Snake.
var patterns2DReduce = append(slices.Clone(core.Patterns2D), core.SnakeAutoGen)

// patterns2DAllReduce is the 2D family of the one kind with a centre-rooted
// and a split program.
var patterns2DAllReduce = append(slices.Clone(patterns2DReduce), core.Centre, core.Split)

// autoAllReduce2D ranges over the reduces into the corner, each with the flood
// behind it, the centre root and the split.
func autoAllReduce2D(r *Request, pr model.Params) (t float64, ok bool) {
	if r.Alg2D == core.Auto2D {
		r.Alg2D, t = core.BestAllReduce2D(r.Width, r.Height, r.B, pr)
		ok = true
	}
	return t, ok
}

// treeReduce records the tree of a lone Reduce.
func treeReduce(p *Plan, pr model.Params) (err error) {
	p.Tree, err = core.TreeFor(p.Alg, p.P, p.B, pr)
	return err
}

// treeEnd records the one tree of an end-rooted composition, the one its
// builder runs: the reduce of a Reduce-then-Broadcast or of a
// Reduce-then-Scatter. A ring has none.
func treeEnd(p *Plan, pr model.Params) (err error) {
	if p.Alg != core.Ring && p.Alg != core.RingDP && p.Alg != core.RingStream {
		p.Tree, err = core.EndTree(p.Alg, p.P, p.B, pr)
	}
	return err
}

// trees2D records the row and column trees of an X-Y plan, and the one tree
// of SnakeAutoGen; Snake, the centre root and the split record none.
func trees2D(p *Plan, pr model.Params) (err error) {
	if p.Alg2D == core.SnakeAutoGen {
		p.Tree, err = core.SnakeTree(p.Width, p.Height, p.B, pr)
	} else if base, ok := p.Alg2D.Base1D(); ok {
		if p.RowTree, err = core.EndTree(base, p.Width, p.B, pr); err == nil {
			p.ColTree, err = core.EndTree(base, p.Height, p.B, pr)
		}
	}
	return err
}

// The bounds: T*(P,B) of §5.6 for the 1D reduce family (an AllReduce
// contains a reduce), Lemma 7.2 in 2D, and for the chunked kinds the
// root-serialisation bound — B·(P-1)/P wavelets must cross one ramp, plus
// the 2·T_R+1 latency floor. A broadcast's bound is Lemma 4.1 / 7.1 as the
// paper states it, control-free: the flood achieves it but for the control
// behind the data.
func bound1D(r Request, pr model.Params) float64 { return core.LowerBound1D(r.P, r.B, pr.TR) }

func bound2D(r Request, pr model.Params) float64 { return pr.LowerBound2D(r.Height, r.Width, r.B) }

func boundChunked(r Request, pr model.Params) float64 {
	if r.P <= 1 {
		return 0
	}
	return float64(r.B)*float64(r.P-1)/float64(r.P) + float64(2*pr.TR) + 1
}

func boundBroadcast1D(r Request, pr model.Params) float64 {
	return model.Params{TR: pr.TR}.Broadcast1D(r.P, r.B)
}

func boundBroadcast2D(r Request, pr model.Params) float64 {
	return model.Params{TR: pr.TR}.Broadcast2D(r.Height, r.Width, r.B)
}

// Kinds is the table, in the order the CLI and the docs list the kinds.
var Kinds = []KindInfo{
	{
		Kind: Reduce1D, Name: "reduce",
		Doc:  "1D Reduce of p vectors of b wavelets into the leftmost PE (alg=, op=)",
		Algs: core.Patterns1D, HasOp: true, Inputs: VectorPerPE, trees: treeReduce, auto: auto1D,
		build: func(s *fabric.Spec, r Request, pr model.Params) error {
			return core.BuildReduce1DInto(s, r.Alg, r.P, r.B, pr, r.Op)
		},
		predict: func(r Request, pr model.Params) float64 { return core.PredictReduce1D(r.Alg, r.P, r.B, pr) },
		bound:   bound1D,
	},
	{
		Kind: AllReduce1D, Name: "allreduce",
		Doc:  "1D AllReduce: every PE ends with the combined vector (alg=, op=)",
		Algs: patterns1DRing, HasOp: true, Inputs: VectorPerPE, trees: treeEnd, auto: autoAllReduce1D,
		build: func(s *fabric.Spec, r Request, pr model.Params) error {
			return core.BuildAllReduce1DInto(s, r.Alg, r.P, r.B, pr, r.Op)
		},
		predict: func(r Request, pr model.Params) float64 { return core.PredictAllReduce1D(r.Alg, r.P, r.B, pr) },
		bound:   bound1D,
	},
	{
		Kind: Broadcast1D, Name: "broadcast",
		Doc:    "1D flooding broadcast of b wavelets across p PEs",
		Inputs: RootVector,
		build: func(s *fabric.Spec, r Request, _ model.Params) error {
			return core.BuildBroadcast1DInto(s, r.P, r.B)
		},
		predict: func(r Request, pr model.Params) float64 { return pr.Broadcast1D(r.P, r.B) },
		bound:   boundBroadcast1D,
	},
	{
		Kind: Reduce2D, Name: "reduce2d",
		Doc:  "2D Reduce on a grid=WxH mesh into PE (0,0) (alg=, op=)",
		Grid: true, Algs2D: patterns2DReduce, HasOp: true, Inputs: VectorPerPE, trees: trees2D, auto: auto2D,
		build: func(s *fabric.Spec, r Request, pr model.Params) error {
			return core.BuildReduce2DInto(s, r.Alg2D, r.Width, r.Height, r.B, pr, r.Op)
		},
		predict: func(r Request, pr model.Params) float64 {
			return core.PredictReduce2D(r.Alg2D, r.Width, r.Height, r.B, pr)
		},
		bound: bound2D,
	},
	{
		Kind: AllReduce2D, Name: "allreduce2d",
		Doc:  "2D AllReduce on a grid=WxH mesh (alg=, op=)",
		Grid: true, Algs2D: patterns2DAllReduce, HasOp: true, Inputs: VectorPerPE, trees: trees2D, auto: autoAllReduce2D,
		build: func(s *fabric.Spec, r Request, pr model.Params) error {
			return core.BuildAllReduce2DInto(s, r.Alg2D, r.Width, r.Height, r.B, pr, r.Op)
		},
		predict: func(r Request, pr model.Params) float64 {
			return core.PredictAllReduce2D(r.Alg2D, r.Width, r.Height, r.B, pr)
		},
		bound: bound2D,
	},
	{
		Kind: Broadcast2D, Name: "broadcast2d",
		Doc:  "2D flooding broadcast across a grid=WxH mesh",
		Grid: true, Inputs: RootVector,
		build: func(s *fabric.Spec, r Request, _ model.Params) error {
			return core.BuildBroadcast2DInto(s, r.Width, r.Height, r.B)
		},
		predict: func(r Request, pr model.Params) float64 { return pr.Broadcast2D(r.Height, r.Width, r.B) },
		bound:   boundBroadcast2D,
	},
	{
		Kind: Scatter, Name: "scatter",
		Doc:     "deliver balanced chunks of a b-element vector to p PEs",
		Chunked: true, Inputs: RootVector,
		build:   func(s *fabric.Spec, r Request, _ model.Params) error { return core.BuildScatterInto(s, r.P, r.B) },
		predict: func(r Request, pr model.Params) float64 { return pr.Scatter(r.P, r.B) },
		bound:   boundChunked,
	},
	{
		Kind: Gather, Name: "gather",
		Doc:     "assemble per-PE chunks into the full vector at the leftmost PE",
		Chunked: true, Inputs: ChunkPerPE,
		build:   func(s *fabric.Spec, r Request, _ model.Params) error { return core.BuildGatherInto(s, r.P, r.B) },
		predict: func(r Request, pr model.Params) float64 { return pr.Gather(r.P, r.B) },
		bound:   boundChunked,
	},
	{
		Kind: ReduceScatter, Name: "reducescatter",
		Doc:   "combine p vectors and leave chunk j on PE j (op=)",
		HasOp: true, Chunked: true, Inputs: VectorPerPE, trees: treeEnd,
		auto: func(r *Request, pr model.Params) (t float64, ok bool) {
			r.Alg, t = core.BestReduceScatter(r.P, r.B, pr)
			return t, true
		},
		build: func(s *fabric.Spec, r Request, pr model.Params) error {
			return core.BuildReduceScatterInto(s, r.Alg, r.P, r.B, pr, r.Op)
		},
		predict: func(r Request, pr model.Params) float64 { return core.PredictReduceScatter(r.Alg, r.P, r.B, pr) },
		bound:   boundChunked,
	},
	{
		Kind: AllGather, Name: "allgather",
		Doc:     "distribute per-PE chunks so every PE ends with the full vector",
		Chunked: true, Inputs: ChunkPerPE, placed: true,
		auto: func(r *Request, pr model.Params) (t float64, ok bool) {
			r.Alg, t = core.BestAllGather(r.P, r.B, pr)
			return t, true
		},
		build: func(s *fabric.Spec, r Request, _ model.Params) error {
			return core.BuildAllGatherInto(s, r.Alg, r.P, r.B)
		},
		predict: func(r Request, pr model.Params) float64 { return core.PredictAllGather(r.Alg, r.P, r.B, pr) },
		bound:   boundChunked,
	},
	{
		Kind: AllReduceMidRoot, Name: "allreduce-midroot",
		Doc:  "AllReduce rooted at the middle PE with a bidirectional flood (alg=, op=)",
		Algs: patternsMidRoot, HasOp: true, Inputs: VectorPerPE,
		// The halves reduce in two parts like the rows and column of a grid:
		// RowTree is the west half's tree, ColTree the east half's. The fold
		// records none.
		trees: func(p *Plan, pr model.Params) (err error) {
			if p.Alg != core.Fold {
				p.RowTree, p.ColTree, err = core.MidRootHalves(p.Alg, p.P, p.B, pr)
			}
			return err
		},
		auto: func(r *Request, pr model.Params) (t float64, ok bool) {
			if r.Alg == core.Auto {
				r.Alg, t = core.BestAllReduceMidRoot(r.P, r.B, pr)
				ok = true
			}
			return t, ok
		},
		build: func(s *fabric.Spec, r Request, pr model.Params) error {
			return core.BuildAllReduceMidRootInto(s, r.Alg, r.P, r.B, pr, r.Op)
		},
		predict: func(r Request, pr model.Params) float64 {
			return core.PredictAllReduceMidRoot(r.Alg, r.P, r.B, pr)
		},
		bound: bound1D,
	},
}

// InfoOf returns the row of k, or nil for a kind the table does not hold.
// It sits on the Run and KeyOf paths, so it is a scan over eleven short
// strings: no map, no allocation.
func InfoOf(k Kind) *KindInfo {
	for i := range Kinds {
		if Kinds[i].Kind == k {
			return &Kinds[i]
		}
	}
	return nil
}

// LookupKind resolves a kind by either of its names — the key name
// ("reduce1d") or the short name ("reduce") — ignoring case. It is the only
// name resolution of the CLI, the wire and workload files.
func LookupKind(name string) (*KindInfo, bool) {
	for i := range Kinds {
		if ki := &Kinds[i]; strings.EqualFold(name, string(ki.Kind)) || strings.EqualFold(name, ki.Name) {
			return ki, true
		}
	}
	return nil, false
}

// layout is one run's input layout: n vectors, vector j of q elements and
// one more for j < rem (the chunked kinds' Chunks sizes; rem is 0 for the
// rest).
type layout struct{ n, q, rem int }

// len is the length of vector j.
func (l layout) len(j int) int {
	if j < l.rem {
		return l.q + 1
	}
	return l.q
}

// inputs is the one place a kind's input layout is decided. It does not
// allocate, so a replay checks its inputs for free.
func (ki *KindInfo) inputs(r Request) layout {
	switch {
	case ki.Inputs == RootVector:
		return layout{n: 1, q: r.B}
	case ki.Inputs == ChunkPerPE && r.P > 0:
		return layout{n: r.P, q: r.B / r.P, rem: r.B % r.P}
	case ki.Inputs == VectorPerPE && ki.Grid:
		return layout{n: r.Width * r.Height, q: r.B}
	}
	return layout{n: r.P, q: r.B}
}

// Validate reports whether r names a runnable collective: a known kind,
// positive geometry and vector length, an algorithm the kind accepts, and a
// known reduction operator where one applies. Fields a kind never consults
// (the 2D algorithm of a 1D reduce, say) are ignored, exactly as KeyOf
// zeroes them. All failures wrap ErrBadShape.
func (r Request) Validate() error {
	if r.B < 1 {
		return badShape("%s: vector length B = %d, want >= 1", r.Kind, r.B)
	}
	ki := InfoOf(r.Kind)
	if ki == nil {
		return badShape("unknown kind %q", r.Kind)
	}
	minP := 1
	if ki.Chunked {
		minP = 2 // a real split; the comm builders reject a single PE too
	}
	ring := ki.Algs != nil && (r.Alg == core.Ring || r.Alg == core.RingDP)
	switch {
	case ki.Grid && (r.Width < 1 || r.Height < 1):
		return badShape("%s: %dx%d grid, want >= 1x1", r.Kind, r.Width, r.Height)
	case !ki.Grid && r.P < minP:
		return badShape("%s: P = %d PEs, want >= %d", r.Kind, r.P, minP)
	case ki.Chunked && r.B < r.P:
		return badShape("%s: B = %d split over P = %d PEs leaves empty chunks, want B >= P", r.Kind, r.B, r.P)
	case ki.Algs != nil && r.Alg != core.Auto && !slices.Contains(ki.Algs, r.Alg):
		return badShape("%s: algorithm %q", r.Kind, r.Alg)
	case ki.Algs2D != nil && r.Alg2D != core.Auto2D && !slices.Contains(ki.Algs2D, r.Alg2D):
		return badShape("%s: 2D algorithm %q", r.Kind, r.Alg2D)
	case ki.HasOp && r.Op > fabric.OpMin:
		return badShape("%s: reduction op %v", r.Kind, r.Op)
	case ring && (r.P < 2 || r.B < r.P):
		// The ring is a chunked algorithm underneath (reduce-scatter then
		// allgather): same builder, same need for a real split.
		return badShape("%s: ring splits B = %d over P = %d PEs, want P >= 2 and B >= P", r.Kind, r.B, r.P)
	case ki.Algs2D != nil && r.Alg2D == core.Split && r.B < r.Width:
		return badShape("%s: split gives each of W = %d columns a chunk of B = %d, want B >= W", r.Kind, r.Width, r.B)
	}
	return nil
}

// CheckInputs validates one run's inputs against the kind's layout.
// Failures wrap ErrBadShape; success allocates nothing.
func (r Request) CheckInputs(inputs [][]float32) error {
	ki := InfoOf(r.Kind)
	if ki == nil {
		return badShape("unknown kind %q", r.Kind)
	}
	return ki.checkInputs(r, inputs)
}

// checkInputs is CheckInputs on r's kind row.
func (ki *KindInfo) checkInputs(r Request, inputs [][]float32) error {
	l := ki.inputs(r)
	if len(inputs) != l.n {
		return badShape("%s wants %d input vector(s), got %d", r.Kind, l.n, len(inputs))
	}
	for j, v := range inputs {
		if want := l.len(j); len(v) != want {
			return badShape("%s: input %d has %d elements, want %d", r.Kind, j, len(v), want)
		}
	}
	return nil
}

// Inputs builds one run's inputs in the kind's layout, asking fill for each
// vector in input order; nil for an unknown kind. r must be valid.
func (r Request) Inputs(fill func(n int) []float32) [][]float32 {
	ki := InfoOf(r.Kind)
	if ki == nil {
		return nil
	}
	l := ki.inputs(r)
	out := make([][]float32, l.n)
	for j := range out {
		out[j] = fill(l.len(j))
	}
	return out
}

// Predict is the performance model's cycle estimate for r: the kind's lemma
// on the resolved request, so an Auto request is estimated as the algorithm
// Compile lowers it to and Predict is a plan's Predicted by construction.
// Like the model it is total — NaN for an unknown kind.
func (r Request) Predict() float64 {
	r, t, priced := r.resolve()
	if priced {
		return t
	}
	if ki := InfoOf(r.Kind); ki != nil {
		return ki.predict(r, core.Params(r.Opt))
	}
	return math.NaN()
}

// Bound is the runtime lower bound of r in cycles, NaN for an unknown kind.
func (r Request) Bound() float64 {
	if ki := InfoOf(r.Kind); ki != nil {
		return ki.bound(r, core.Params(r.Opt))
	}
	return math.NaN()
}

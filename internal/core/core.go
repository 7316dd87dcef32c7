// Package core compiles and prices the paper's collectives: it maps
// algorithm names to reduction trees, lowers a concrete schedule to a fabric
// program via comm (the Build*Into functions), prices it with the
// performance model (Predict*), and makes the model-driven choice of §5.5
// (Best*). It runs nothing, and its builders and estimates take concrete
// schedules only: the kind table of package plan calls Best* once to
// resolve an Auto request, then compiles and prices what was picked through
// here and runs the program on the fabric simulator.
package core

import (
	"fmt"

	"repro/internal/autogen"
	"repro/internal/comm"
	"repro/internal/fabric"
	"repro/internal/lowerbound"
	"repro/internal/mesh"
	"repro/internal/model"
)

// Pattern names a 1D Reduce/AllReduce algorithm.
type Pattern string

// The 1D patterns of §5. Auto asks for the pattern the performance model
// prices lowest for the given P and B (Auto-Gen included), the paper's
// model-driven deployment mode; it is a request, which Best* resolves, and
// never reaches a builder or a Predict function.
const (
	Star     Pattern = "star"
	Chain    Pattern = "chain" // the vendor's pattern
	Tree     Pattern = "tree"
	TwoPhase Pattern = "twophase"
	AutoGen  Pattern = "autogen"
	Auto     Pattern = "auto"
	// Ring and RingDP are AllReduce-only: the classic ring algorithm
	// (§6.2) in its simple and distance-preserving mappings (Figure 7).
	// The paper models ring and shows it only wins for tiny PE counts
	// with huge vectors, so it skips the implementation; this
	// reproduction implements it, and Auto deploys it where it wins.
	Ring   Pattern = "ring"
	RingDP Pattern = "ring-dp"
)

// Patterns1D lists the concrete (runnable) 1D patterns.
var Patterns1D = []Pattern{Star, Chain, Tree, TwoPhase, AutoGen}

// Params is the model parameterisation of a run under opt: the fabric's
// ramp latency, and the one control wavelet comm.BuildTreeReduce appends to
// every transfer. Every prediction of a run, every Auto choice and every
// generated tree is made under these; model.Default() is the paper's
// control-free parameterisation, which only the figure harness uses.
func Params(opt fabric.Options) model.Params {
	tr := opt.TR
	switch {
	case tr == 0:
		tr = fabric.DefaultTR
	case tr < 0:
		tr = 0
	}
	return model.Params{TR: tr, Ctl: 1}
}

// TreeFor returns the reduction tree of a concrete pattern for p PEs and
// vector length b (b matters only for AutoGen, whose tree is optimised
// per input size).
func TreeFor(pattern Pattern, p, b int, pr model.Params) (comm.Tree, error) {
	if p < 1 {
		return comm.Tree{}, fmt.Errorf("core: %d PEs", p)
	}
	if p == 1 {
		return comm.Single(), nil
	}
	switch pattern {
	case Star, Chain, Tree, TwoPhase:
		return comm.TreeOf(string(pattern), p)
	case AutoGen:
		// The DP prices transfers, and a transfer is b+Ctl wavelets long.
		return autogen.For(p).Tree(p, b+pr.Ctl, pr.TR), nil
	}
	return comm.Tree{}, fmt.Errorf("core: unknown pattern %q", pattern)
}

// PredictReduce1D returns the model's runtime estimate in cycles of the
// program BuildReduce1DInto compiles: the closed forms of Star and Chain,
// and for the other trees — the binomial and Two-Phase ones, and whatever
// the Auto-Gen search returned — the critical path of the tree itself.
func PredictReduce1D(pattern Pattern, p, b int, pr model.Params) float64 {
	switch pattern {
	case Star:
		return pr.StarReduce(p, b)
	case Chain:
		return pr.ChainReduce(p, b)
	case Tree, TwoPhase, AutoGen:
		tree, _ := TreeFor(pattern, p, b, pr) // fails for p < 1 only: no tree, no cycles
		return pr.CriticalPath(tree.Parent, b)
	}
	return 0
}

// PredictAllReduce1D is the Reduce-then-Broadcast estimate of a tree
// pattern from the end root, or Lemma 6.1's ring estimate for the ring
// patterns (the model assigns both mappings the same cost). What an Auto
// AllReduce runs is BestAllReduce1D's to say.
func PredictAllReduce1D(pattern Pattern, p, b int, pr model.Params) float64 {
	if pattern == Ring || pattern == RingDP {
		return pr.RingAllReduce(p, b)
	}
	return pr.Then(PredictReduce1D(pattern, p, b, pr), pr.Broadcast1D(p, b))
}

// BestReduce1D picks the concrete pattern with the lowest predicted
// Reduce runtime, the choice the paper's code generator deploys.
func BestReduce1D(p, b int, pr model.Params) (Pattern, float64) {
	return best1D(func(pat Pattern) float64 { return PredictReduce1D(pat, p, b, pr) })
}

// best1D returns the concrete tree pattern predict prices lowest; Auto-Gen
// wins ties, as the paper's generator deploys it unless a fixed pattern is
// strictly better.
func best1D(predict func(Pattern) float64) (Pattern, float64) {
	best, bestT := AutoGen, predict(AutoGen)
	for _, pat := range []Pattern{Star, Chain, Tree, TwoPhase} {
		if t := predict(pat); t < bestT {
			best, bestT = pat, t
		}
	}
	return best, bestT
}

// BestAllReduce1D picks what an Auto AllReduce along a row runs, over every
// schedule that computes it: Reduce-then-Broadcast rooted at the end of the
// row or (midRoot) at its middle, under the tree that prices each lowest,
// and the ring where it has a program — a real split into non-empty chunks.
// The model prices both ring mappings alike, so the simple one, which also
// runs on odd rows, stands for both. The end root wins ties, then the middle
// root.
func BestAllReduce1D(p, b int, pr model.Params) (best Pattern, midRoot bool, bestT float64) {
	best, bestT = best1D(func(pat Pattern) float64 { return PredictAllReduce1D(pat, p, b, pr) })
	if pat, t := BestAllReduceMidRoot(p, b, pr); t < bestT {
		best, midRoot, bestT = pat, true, t
	}
	if t := pr.RingAllReduce(p, b); p >= 2 && b >= p && t < bestT {
		best, midRoot, bestT = Ring, false, t
	}
	return best, midRoot, bestT
}

// MidRootHalves returns the reduction trees comm.BuildAllReduceMidRoot runs
// on the two halves of a row of p PEs, each rooted at the middle PE: the
// west one over ⌊p/2⌋+1 PEs, the east one over ⌈p/2⌉. A fixed pattern runs
// its own tree on each half; AutoGen runs the pair autogen.MidRoot searches
// for the middle root's critical path, which moves no more hops than the
// §5.5 tree of each half would.
func MidRootHalves(pattern Pattern, p, b int, pr model.Params) (west, east comm.Tree, err error) {
	if pattern == AutoGen && p >= 2 {
		west, east = autogen.MidRoot(p, b+pr.Ctl, pr.TR)
		return west, east, nil
	}
	if west, err = TreeFor(pattern, p/2+1, b, pr); err != nil {
		return west, east, err
	}
	east, err = TreeFor(pattern, p-p/2, b, pr)
	return west, east, err
}

// PredictAllReduceMidRoot is the middle root priced as one path
// (model.MidRootAllReduce) over the trees the builder runs on the halves,
// for any tree pattern.
func PredictAllReduceMidRoot(pattern Pattern, p, b int, pr model.Params) float64 {
	west, east, _ := MidRootHalves(pattern, p, b, pr) // fails for p < 1 or no tree pattern: no trees, no cycles
	return pr.MidRootAllReduce(west.Parent, east.Parent, b)
}

// BestAllReduceMidRoot picks the tree pattern with the lowest predicted
// middle-root AllReduce runtime. It is not BestReduce1D of a half: the
// root queues both halves' transfers, so a wide tree that wins a lone
// Reduce can lose here — which is why AutoGen's halves are searched as a
// pair (MidRootHalves).
func BestAllReduceMidRoot(p, b int, pr model.Params) (Pattern, float64) {
	return best1D(func(pat Pattern) float64 { return PredictAllReduceMidRoot(pat, p, b, pr) })
}

// LowerBound1D is the paper's Reduce runtime lower bound T*(p,b).
func LowerBound1D(p, b, tr int) float64 {
	return lowerbound.For(p).Time(p, b, tr)
}

// Report is the outcome of running a collective on the fabric simulator.
type Report struct {
	// Cycles is the measured simulated runtime.
	Cycles int64
	// Predicted is the performance model's estimate for the same run.
	Predicted float64
	// Root holds the reduction result at the root PE (Reduce) or the
	// vector every PE holds (Broadcast/AllReduce).
	Root []float32
	// All maps every PE to its final accumulator. Columnar replays leave
	// it nil and publish Columnar instead.
	All map[mesh.Coord][]float32
	// Columnar is the map-free per-PE result of a columnar replay (flat
	// accumulator buffer indexed by row-major coordinate order); nil on
	// the default map-shaped path.
	Columnar *fabric.ColumnarResult
	// Stats carries the measured cost metrics (energy, contention, ...).
	Stats fabric.Stats
}

// BuildReduce1DInto compiles a 1D Reduce for p PEs into spec (a p×1
// region) without initial data; callers set Init per PE afterwards.
func BuildReduce1DInto(spec *fabric.Spec, pattern Pattern, p, b int, pr model.Params, op fabric.ReduceOp) error {
	tree, err := TreeFor(pattern, p, b, pr)
	if err != nil {
		return err
	}
	return comm.BuildReduce1D(spec, mesh.Row(0, 0, p), tree, b, op)
}

// BuildAllReduce1DInto compiles a 1D Reduce-then-Broadcast from the end
// root into spec, or the ring algorithm for the ring patterns (resolve Auto
// with BestAllReduce1D first: its pick may be the middle root's program).
func BuildAllReduce1DInto(spec *fabric.Spec, pattern Pattern, p, b int, pr model.Params, op fabric.ReduceOp) error {
	switch pattern {
	case Ring:
		return comm.BuildRingAllReduce(spec, mesh.Row(0, 0, p), b, comm.RingSimple, op)
	case RingDP:
		return comm.BuildRingAllReduce(spec, mesh.Row(0, 0, p), b, comm.RingDistancePreserving, op)
	}
	tree, err := TreeFor(pattern, p, b, pr)
	if err != nil {
		return err
	}
	return comm.BuildAllReduce1D(spec, mesh.Row(0, 0, p), tree, b, op)
}

// BuildBroadcast1DInto compiles a 1D flooding broadcast for p PEs into
// spec; the caller sets Init on the leftmost PE afterwards.
func BuildBroadcast1DInto(spec *fabric.Spec, p, b int) error {
	if b < 1 {
		return fmt.Errorf("core: empty vector")
	}
	if p < 1 {
		return fmt.Errorf("core: %d PEs", p)
	}
	path := mesh.Row(0, 0, p)
	if p > 1 {
		if err := comm.BuildBroadcast(spec, path, b, comm.ColorBcast); err != nil {
			return err
		}
	}
	for _, c := range path {
		spec.PE(c) // materialise every PE even when p == 1
	}
	return nil
}

// ReportOf wraps a raw fabric result in a Report carrying the given model
// prediction. The plan subsystem runs the fabric (or walks a replay tape)
// itself and reports through here.
func ReportOf(res *fabric.Result, predicted float64) *Report {
	return &Report{
		Cycles:    res.Cycles,
		Predicted: predicted,
		Root:      res.Acc[mesh.Coord{X: 0, Y: 0}],
		All:       res.Acc,
		Stats:     res.Stats,
	}
}

// ReportOfColumnar wraps a columnar fabric result: Root comes straight
// from the flat buffer and All stays nil — callers read per-PE state
// through Report.Columnar.
func ReportOfColumnar(res *fabric.ColumnarResult, predicted float64) *Report {
	return &Report{
		Cycles:    res.Cycles,
		Predicted: predicted,
		Root:      res.Root,
		Columnar:  res,
		Stats:     res.Stats,
	}
}

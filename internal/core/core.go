// Package core orchestrates the paper's collectives: it maps algorithm
// names to reduction trees, compiles them to fabric programs via comm,
// predicts their runtime with the performance model, and runs them on the
// fabric simulator. The public wse package and the experiment harness are
// thin layers over this package.
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

// The 1D patterns of §5. Auto selects the best pattern (including
// Auto-Gen) for the given P and B using the performance model, which is
// the paper's model-driven deployment mode.
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
// per input size, and Auto).
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
	case Auto:
		best, _ := BestReduce1D(p, b, pr)
		return TreeFor(best, p, b, pr)
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
	case Auto:
		_, t := BestReduce1D(p, b, pr)
		return t
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
// west one over ⌊p/2⌋+1 PEs, the east one over ⌈p/2⌉.
func MidRootHalves(pattern Pattern, p, b int, pr model.Params) (west, east comm.Tree, err error) {
	if west, err = TreeFor(pattern, p/2+1, b, pr); err != nil {
		return west, east, err
	}
	east, err = TreeFor(pattern, p-p/2, b, pr)
	return west, east, err
}

// PredictAllReduceMidRoot is the middle root priced as one path
// (model.MidRootAllReduce) over the trees the builder runs on the halves,
// for any tree pattern. Auto is priced as the pattern that minimises it.
func PredictAllReduceMidRoot(pattern Pattern, p, b int, pr model.Params) float64 {
	if pattern == Auto {
		_, t := BestAllReduceMidRoot(p, b, pr)
		return t
	}
	west, east, _ := MidRootHalves(pattern, p, b, pr) // fails for p < 1 or no tree pattern: no trees, no cycles
	return pr.MidRootAllReduce(west.Parent, east.Parent, b)
}

// BestAllReduceMidRoot picks the tree pattern with the lowest predicted
// middle-root AllReduce runtime. It is not BestReduce1D of a half: the
// root queues both halves' transfers, so a wide tree that wins a lone
// Reduce can lose here.
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

func vecLen(vectors [][]float32) (int, error) {
	if len(vectors) == 0 {
		return 0, fmt.Errorf("core: no input vectors")
	}
	b := len(vectors[0])
	if b == 0 {
		return 0, fmt.Errorf("core: empty vectors")
	}
	for i, v := range vectors {
		if len(v) != b {
			return 0, fmt.Errorf("core: vector %d has length %d, want %d", i, len(v), b)
		}
	}
	return b, nil
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

// RunReduce1D reduces one vector per PE along a row of len(vectors) PEs to
// the leftmost PE on the fabric simulator.
func RunReduce1D(pattern Pattern, vectors [][]float32, op fabric.ReduceOp, opt fabric.Options) (*Report, error) {
	b, err := vecLen(vectors)
	if err != nil {
		return nil, err
	}
	p := len(vectors)
	pr := Params(opt)
	spec := fabric.NewSpec(p, 1)
	if err := BuildReduce1DInto(spec, pattern, p, b, pr, op); err != nil {
		return nil, err
	}
	for i, c := range mesh.Row(0, 0, p) {
		spec.PE(c).Init = vectors[i]
	}
	return ExecSpec(spec, opt, PredictReduce1D(pattern, p, b, pr))
}

// RunAllReduce1D runs an AllReduce along a row: Reduce-then-Broadcast from
// the end root, the ring, or under Auto whichever schedule BestAllReduce1D
// picks — the middle root included.
func RunAllReduce1D(pattern Pattern, vectors [][]float32, op fabric.ReduceOp, opt fabric.Options) (*Report, error) {
	b, err := vecLen(vectors)
	if err != nil {
		return nil, err
	}
	p := len(vectors)
	pr := Params(opt)
	if pattern == Auto {
		var midRoot bool
		if pattern, midRoot, _ = BestAllReduce1D(p, b, pr); midRoot {
			return RunAllReduceMidRoot(pattern, vectors, op, opt)
		}
	}
	spec := fabric.NewSpec(p, 1)
	if err := BuildAllReduce1DInto(spec, pattern, p, b, pr, op); err != nil {
		return nil, err
	}
	for i, c := range mesh.Row(0, 0, p) {
		spec.PE(c).Init = vectors[i]
	}
	return ExecSpec(spec, opt, PredictAllReduce1D(pattern, p, b, pr))
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

// RunBroadcast1D floods data from the leftmost PE of a row of p PEs.
func RunBroadcast1D(data []float32, p int, opt fabric.Options) (*Report, error) {
	spec := fabric.NewSpec(p, 1)
	if err := BuildBroadcast1DInto(spec, p, len(data)); err != nil {
		return nil, err
	}
	spec.PE(mesh.Coord{}).Init = data
	return ExecSpec(spec, opt, Params(opt).Broadcast1D(p, len(data)))
}

// ExecSpec instantiates and runs a compiled spec on the fabric simulator
// and wraps the result in a Report carrying the given model prediction.
// It is the execute half of the compile/execute split: the plan subsystem
// replays cached specs through it.
func ExecSpec(spec *fabric.Spec, opt fabric.Options, predicted float64) (*Report, error) {
	res, err := runSpec(spec, opt)
	if err != nil {
		return nil, err
	}
	return report(res, predicted), nil
}

func runSpec(spec *fabric.Spec, opt fabric.Options) (*fabric.Result, error) {
	f, err := fabric.New(spec, opt)
	if err != nil {
		return nil, err
	}
	return f.Run()
}

// ReportOf wraps a raw fabric result in a Report carrying the given model
// prediction. The plan subsystem runs the fabric (or walks a replay tape)
// itself and reports through here.
func ReportOf(res *fabric.Result, predicted float64) *Report {
	return report(res, predicted)
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

func report(res *fabric.Result, predicted float64) *Report {
	return &Report{
		Cycles:    res.Cycles,
		Predicted: predicted,
		Root:      res.Acc[mesh.Coord{X: 0, Y: 0}],
		All:       res.Acc,
		Stats:     res.Stats,
	}
}

package core

// Extension collectives beyond the paper's Reduce/AllReduce/Broadcast
// set: Scatter, Gather, ReduceScatter, AllGather (chunked) and the
// middle-root AllReduce of §6.1's root-placement remark. They complete the
// MPI-style collective suite on the same fabric substrate.
//
// ReduceScatter and AllGather each have two schedules — a phase of the ring
// AllReduce (§6.2), or a composition through the leftmost PE, Reduce then
// Scatter and Gather then Broadcast — and run whichever the model prices
// lower. A Pattern names the schedule: Ring, or the tree that carries the
// data to the root (any reduce tree for ReduceScatter; Star for AllGather,
// whose Gather sends every chunk straight to the root).
//
// Each collective is split into a Build*Into compile half (program and
// routing tables only, no initial data) and a Run* convenience that
// compiles, binds inputs and executes. The plan subsystem caches the
// output of the compile half and replays it.

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

// ScatterColor is the dedicated color of the scatter/gather streams.
const scatterColor mesh.Color = 5

// Chunks returns the balanced chunk offsets and sizes used by Scatter,
// Gather, ReduceScatter and AllGather: chunk j belongs to PE j.
func Chunks(p, b int) (off, sz []int) { return comm.Chunks(p, b) }

// BuildScatterInto compiles a chunked scatter of b elements over a row of
// p PEs into spec; the caller sets Init on the root afterwards.
func BuildScatterInto(spec *fabric.Spec, p, b int) error {
	if p < 2 {
		return fmt.Errorf("core: scatter needs at least 2 PEs")
	}
	return comm.BuildScatter(spec, mesh.Row(0, 0, p), b, scatterColor)
}

// RunScatter delivers chunk j of data to PE j along a row of p PEs
// (chunk 0 stays at the root). Report.All[pe] holds each PE's chunk.
func RunScatter(data []float32, p int, opt fabric.Options) (*Report, error) {
	spec := fabric.NewSpec(p, 1)
	if err := BuildScatterInto(spec, p, len(data)); err != nil {
		return nil, err
	}
	spec.PE(mesh.Coord{}).Init = data
	return ExecSpec(spec, opt, Params(opt).Scatter(p, len(data)))
}

// BuildGatherInto compiles a chunked gather of b total elements over a
// row of p PEs into spec.
func BuildGatherInto(spec *fabric.Spec, p, b int) error {
	if p < 2 {
		return fmt.Errorf("core: gather needs at least 2 PEs")
	}
	return comm.BuildGather(spec, mesh.Row(0, 0, p), b, scatterColor)
}

// CheckChunks validates per-PE chunk lengths against the balanced layout
// of Chunks and returns the total element count.
func CheckChunks(chunks [][]float32) (int, error) {
	p := len(chunks)
	b := 0
	for _, c := range chunks {
		b += len(c)
	}
	_, sz := comm.Chunks(p, b)
	for j, c := range chunks {
		if len(c) != sz[j] {
			return 0, fmt.Errorf("core: chunk %d has %d elements, want %d", j, len(c), sz[j])
		}
	}
	return b, nil
}

// RunGather assembles per-PE chunks into the full vector at the root.
// chunks[j] is PE j's contribution; sizes must follow Chunks.
func RunGather(chunks [][]float32, opt fabric.Options) (*Report, error) {
	p := len(chunks)
	if p < 2 {
		return nil, fmt.Errorf("core: gather needs at least 2 PEs")
	}
	b, err := CheckChunks(chunks)
	if err != nil {
		return nil, err
	}
	spec := fabric.NewSpec(p, 1)
	if err := BuildGatherInto(spec, p, b); err != nil {
		return nil, err
	}
	for j, c := range mesh.Row(0, 0, p) {
		spec.PE(c).Init = chunks[j]
	}
	return ExecSpec(spec, opt, Params(opt).Gather(p, b))
}

// placeChunks moves the chunk every PE but the root sends or receives in its
// last op — the one comm.BuildScatter or comm.BuildGather just appended —
// from the front of its accumulator to its Chunks offset: where a
// composition through the root keeps chunk j of the B-element image.
func placeChunks(spec *fabric.Spec, p, b int) error {
	off, _ := comm.Chunks(p, b)
	for v, c := range mesh.Row(0, 0, p)[1:] {
		ops := spec.PE(c).Ops
		if len(ops) == 0 {
			return fmt.Errorf("core: PE %v has no chunk op to place", c)
		}
		op := &ops[len(ops)-1]
		if op.Color != scatterColor || op.Kind != fabric.OpSend && op.Kind != fabric.OpRecvStore {
			return fmt.Errorf("core: PE %v ends in %v on color %d, not its chunk's send or receive", c, op.Kind, op.Color)
		}
		op.Off = off[v+1]
	}
	return nil
}

// BestReduceScatter picks what a ReduceScatter runs: Ring, the first phase
// of the ring AllReduce, or a tree pattern — Reduce over that tree, then
// Scatter the result from the root. The ring wins ties.
func BestReduceScatter(p, b int, pr model.Params) (Pattern, float64) {
	pat, reduce := BestReduce1D(p, b, pr)
	if t := pr.Then(reduce, pr.Scatter(p, b)); t < pr.ReduceScatter(p, b) {
		return pat, t
	}
	return Ring, pr.ReduceScatter(p, b)
}

// PredictReduceScatter estimates a ReduceScatter under a schedule
// BestReduceScatter can pick.
func PredictReduceScatter(pattern Pattern, p, b int, pr model.Params) float64 {
	if pattern == Ring {
		return pr.ReduceScatter(p, b)
	}
	return pr.Then(PredictReduce1D(pattern, p, b, pr), pr.Scatter(p, b))
}

// BuildReduceScatterInto compiles a reduce-scatter of b elements over a row
// of p PEs into spec under the given schedule. Either way chunk j of the
// combination ends at its Chunks offset of PE j's accumulator.
func BuildReduceScatterInto(spec *fabric.Spec, pattern Pattern, p, b int, pr model.Params, op fabric.ReduceOp) error {
	if p < 2 {
		return fmt.Errorf("core: reduce-scatter needs at least 2 PEs")
	}
	if pattern == Ring {
		return comm.BuildReduceScatter(spec, mesh.Row(0, 0, p), b, comm.RingSimple, op)
	}
	if err := BuildReduce1DInto(spec, pattern, p, b, pr, op); err != nil {
		return err
	}
	if err := comm.BuildScatter(spec, mesh.Row(0, 0, p), b, scatterColor); err != nil {
		return err
	}
	return placeChunks(spec, p, b)
}

// RunReduceScatter combines one vector per PE elementwise and leaves
// chunk j of the combination on PE j (at its chunk offset within
// Report.All[pe]).
func RunReduceScatter(vectors [][]float32, op fabric.ReduceOp, opt fabric.Options) (*Report, error) {
	b, err := vecLen(vectors)
	if err != nil {
		return nil, err
	}
	p := len(vectors)
	pr := Params(opt)
	spec := fabric.NewSpec(p, 1)
	pattern, predicted := BestReduceScatter(p, b, pr)
	if err := BuildReduceScatterInto(spec, pattern, p, b, pr, op); err != nil {
		return nil, err
	}
	for i, c := range mesh.Row(0, 0, p) {
		spec.PE(c).Init = vectors[i]
	}
	return ExecSpec(spec, opt, predicted)
}

// BestAllGather picks what an AllGather runs: Ring, the second phase of the
// ring AllReduce, or Star — Gather every chunk straight to the root, then
// Broadcast the assembled vector. The ring wins ties.
func BestAllGather(p, b int, pr model.Params) (Pattern, float64) {
	if t := PredictAllGather(Star, p, b, pr); t < pr.AllGather(p, b) {
		return Star, t
	}
	return Ring, pr.AllGather(p, b)
}

// PredictAllGather estimates an AllGather under a schedule BestAllGather can
// pick.
func PredictAllGather(pattern Pattern, p, b int, pr model.Params) float64 {
	if pattern == Ring {
		return pr.AllGather(p, b)
	}
	return pr.Then(pr.Gather(p, b), pr.Broadcast1D(p, b))
}

// BuildAllGatherInto compiles an allgather of b total elements over a row
// of p PEs into spec under the given schedule. Either way PE j starts with
// chunk j at its Chunks offset and every PE ends with the full vector.
func BuildAllGatherInto(spec *fabric.Spec, pattern Pattern, p, b int, pr model.Params) error {
	if p < 2 {
		return fmt.Errorf("core: allgather needs at least 2 PEs")
	}
	path := mesh.Row(0, 0, p)
	if pattern == Ring {
		return comm.BuildAllGather(spec, path, b, comm.RingSimple)
	}
	if err := comm.BuildGather(spec, path, b, scatterColor); err != nil {
		return err
	}
	if err := placeChunks(spec, p, b); err != nil {
		return err
	}
	return comm.BuildBroadcast(spec, path, b, comm.ColorBcast)
}

// AllGatherInit returns the b-length initial accumulator of a PE for an
// allgather: its chunk placed at its Chunks offset, zeros elsewhere.
func AllGatherInit(chunk []float32, off, b int) []float32 {
	init := make([]float32, b)
	copy(init[off:], chunk)
	return init
}

// RunAllGather distributes per-PE chunks so every PE ends with the full
// vector. chunks[j] is PE j's contribution; sizes must follow Chunks.
func RunAllGather(chunks [][]float32, opt fabric.Options) (*Report, error) {
	p := len(chunks)
	if p < 2 {
		return nil, fmt.Errorf("core: allgather needs at least 2 PEs")
	}
	b, err := CheckChunks(chunks)
	if err != nil {
		return nil, err
	}
	pr := Params(opt)
	spec := fabric.NewSpec(p, 1)
	pattern, predicted := BestAllGather(p, b, pr)
	if err := BuildAllGatherInto(spec, pattern, p, b, pr); err != nil {
		return nil, err
	}
	off, _ := comm.Chunks(p, b)
	for j, c := range mesh.Row(0, 0, p) {
		spec.PE(c).Init = AllGatherInit(chunks[j], off[j], b)
	}
	return ExecSpec(spec, opt, predicted)
}

// BuildAllReduceMidRootInto compiles the middle-root AllReduce for a
// concrete pattern (resolve Auto with BestAllReduceMidRoot first).
func BuildAllReduceMidRootInto(spec *fabric.Spec, pattern Pattern, p, b int, pr model.Params, op fabric.ReduceOp) error {
	path := mesh.Row(0, 0, p)
	treeFor := func(n int) (comm.Tree, error) { return TreeFor(pattern, n, b, pr) }
	return comm.BuildAllReduceMidRoot(spec, path, b, treeFor, op)
}

// RunAllReduceMidRoot runs the middle-root AllReduce: both row halves
// reduce into the middle PE concurrently and the result floods out in
// both directions — the root-placement optimisation of §6.1.
func RunAllReduceMidRoot(pattern Pattern, vectors [][]float32, op fabric.ReduceOp, opt fabric.Options) (*Report, error) {
	b, err := vecLen(vectors)
	if err != nil {
		return nil, err
	}
	p := len(vectors)
	pr := Params(opt)
	if pattern == Auto {
		pattern, _ = BestAllReduceMidRoot(p, b, pr)
	}
	spec := fabric.NewSpec(p, 1)
	if err := BuildAllReduceMidRootInto(spec, pattern, p, b, pr, op); err != nil {
		return nil, err
	}
	for i, c := range mesh.Row(0, 0, p) {
		spec.PE(c).Init = vectors[i]
	}
	return ExecSpec(spec, opt, PredictAllReduceMidRoot(pattern, p, b, pr))
}

package core

// Extension collectives beyond the paper's Reduce/AllReduce/Broadcast
// set: Scatter, Gather, ReduceScatter, AllGather (chunked) and the
// middle-root AllReduce of §6.1's root-placement remark. They complete the
// MPI-style collective suite on the same fabric substrate.
//
// ReduceScatter and AllGather name no algorithm: each deploys whichever of
// its schedules the model prices lowest (BestReduceScatter, BestAllGather),
// and a Pattern names the one picked. ReduceScatter has two — Ring, the first
// phase of the ring AllReduce (§6.2), or a composition through the leftmost
// PE, Reduce over the tree the pattern names, then Scatter. AllGather has
// three: Ring, its second phase; Star, the composition through the middle PE
// — a star Gather of both halves into PE ⌊P/2⌋, then a flood both ways; and
// GatherFlood, every PE flooding its own chunk on its turn.
//
// Each collective is a Build*Into compiler (program and routing tables only,
// no initial data); the plan subsystem binds inputs into what it compiled,
// caches it and replays it.

import (
	"fmt"
	"math"

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

// BuildGatherInto compiles a chunked gather of b total elements over a
// row of p PEs into spec.
func BuildGatherInto(spec *fabric.Spec, p, b int) error {
	if p < 2 {
		return fmt.Errorf("core: gather needs at least 2 PEs")
	}
	return comm.BuildGather(spec, mesh.Row(0, 0, p), b, scatterColor)
}

// placeChunks moves the chunk every PE but the root receives in its last op
// — the one comm.BuildScatter just appended — from the front of its
// accumulator to its Chunks offset: where a ReduceScatter through the root
// leaves chunk j of the B-element image.
func placeChunks(spec *fabric.Spec, p, b int) error {
	off, _ := comm.Chunks(p, b)
	for v, c := range mesh.Row(0, 0, p)[1:] {
		ops := spec.PE(c).Ops
		if len(ops) == 0 {
			return fmt.Errorf("core: PE %v has no chunk op to place", c)
		}
		op := &ops[len(ops)-1]
		if op.Color != scatterColor || op.Kind != fabric.OpRecvStore {
			return fmt.Errorf("core: PE %v ends in %v on color %d, not its chunk's receive", c, op.Kind, op.Color)
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
// BestReduceScatter can pick, and any other pattern at +Inf.
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
		return comm.BuildReduceScatter(spec, comm.RowLane(p, b), comm.RingSimple, op)
	}
	if err := BuildReduce1DInto(spec, pattern, p, b, pr, op); err != nil {
		return err
	}
	if err := comm.BuildScatter(spec, mesh.Row(0, 0, p), b, scatterColor); err != nil {
		return err
	}
	return placeChunks(spec, p, b)
}

// AllGatherPatterns lists the schedules of an AllGather: Ring, the second
// phase of the ring AllReduce; Star, the composition through the middle PE;
// and GatherFlood.
var AllGatherPatterns = []Pattern{Ring, Star, GatherFlood}

// BestAllGather picks the schedule an AllGather runs, the one the model
// prices lowest; the earlier in AllGatherPatterns wins a tie.
func BestAllGather(p, b int, pr model.Params) (Pattern, float64) {
	best, bestT := Ring, math.Inf(1)
	for _, pat := range AllGatherPatterns {
		if t := PredictAllGather(pat, p, b, pr); t < bestT {
			best, bestT = pat, t
		}
	}
	return best, bestT
}

// PredictAllGather estimates an AllGather under a schedule BestAllGather can
// pick, and any other pattern at +Inf.
func PredictAllGather(pattern Pattern, p, b int, pr model.Params) float64 {
	switch pattern {
	case Ring:
		return pr.AllGather(p, b)
	case Star:
		return pr.MidRootAllGather(p, b)
	case GatherFlood:
		return pr.GatherFlood(p, b)
	}
	return math.Inf(1)
}

// BuildAllGatherInto compiles an allgather of b total elements over a row
// of p PEs into spec under a schedule BestAllGather can pick. Every way PE j
// starts with chunk j at its Chunks offset and every PE ends with the full
// vector.
func BuildAllGatherInto(spec *fabric.Spec, pattern Pattern, p, b int) error {
	if p < 2 {
		return fmt.Errorf("core: allgather needs at least 2 PEs")
	}
	return buildAllGather(spec, comm.RowLane(p, b), pattern)
}

// buildAllGather compiles an AllGather on a lane under a schedule
// BestAllGather can pick.
func buildAllGather(spec *fabric.Spec, lane comm.Lane, pattern Pattern) error {
	switch pattern {
	case Ring:
		return comm.BuildAllGather(spec, lane, comm.RingSimple)
	case Star:
		return comm.BuildAllGatherMidRoot(spec, lane)
	case GatherFlood:
		return comm.BuildGatherFlood(spec, lane)
	}
	return fmt.Errorf("core: allgather has no schedule %q", pattern)
}

// AllGatherInit returns the b-length initial accumulator of a PE for an
// allgather: its chunk placed at its Chunks offset, zeros elsewhere.
func AllGatherInit(chunk []float32, off, b int) []float32 {
	init := make([]float32, b)
	copy(init[off:], chunk)
	return init
}

// BuildAllReduceMidRootInto compiles the middle-root AllReduce for a
// concrete pattern (resolve Auto with BestAllReduceMidRoot first): the fold,
// or the halves MidRootHalves returns for a tree pattern, the trees
// PredictAllReduceMidRoot prices.
func BuildAllReduceMidRootInto(spec *fabric.Spec, pattern Pattern, p, b int, pr model.Params, op fabric.ReduceOp) error {
	return buildAllReduce1D(spec, comm.RowLane(p, b), pattern, true, pr, op)
}

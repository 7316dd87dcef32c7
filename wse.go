// Package wse is a Go reproduction of "Near-Optimal Wafer-Scale Reduce"
// (Luczynski, Gianinazzi et al., HPDC 2024): Reduce, AllReduce and
// Broadcast collectives for 2D-mesh wafer-scale fabrics such as the
// Cerebras WSE-2, together with the paper's performance model, runtime
// lower bound, and the Auto-Gen model-driven code generator.
//
// Because physical wafer-scale hardware is not generally available, the
// collectives execute on a cycle-level fabric simulator that models the
// architectural features the paper identifies as decisive: per-color
// routing configurations, hardware multicast, one-wavelet-per-cycle link
// bandwidth with backpressure, and the ramp latency T_R between each
// processor and its router. The paper notes the real machine behaves
// deterministically enough to "be modeled with a cycle-accurate fabric
// simulator" (§1.4); this package supplies that simulator.
//
// # Quick start
//
// The API is Shape-first: a Shape names any of the 11 collective kinds,
// and three verbs consume it — Run executes on the simulator, Predict
// returns the model estimate, Bound the runtime lower bound.
//
//	sh := wse.Shape{Kind: wse.KindAllReduce, Alg: wse.Auto, P: 4, B: 2, Op: wse.Sum}
//	vectors := [][]float32{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
//	rep, err := wse.Run(context.Background(), sh, vectors)
//	// rep.Root == []float32{16, 20}; rep.Cycles is the simulated runtime,
//	// wse.Predict(sh) the model's estimate, wse.Bound(sh) the floor.
//
// Algorithms: Star, Chain (the vendor baseline), Tree, TwoPhase and
// AutoGen from the paper's §5, or Auto to let the performance model pick
// — the model-driven deployment the paper advocates; sh.Resolve() says
// what it picked. 2D grids use the X-Y and Snake mappings of §7.
//
// For repeated collectives, use a Session: it compiles each distinct
// collective shape once into a cached plan and replays the plan on every
// subsequent call, with concurrent collectives bounded by a worker pool.
// The same three verbs (plus the async Submit, returning a Future, and
// the amortised RunBatch) exist on the Session and on its per-QoS Tenant
// handles.
//
//	s := wse.NewSession(wse.SessionConfig{})
//	rep, err := s.Run(ctx, sh, vectors)  // compiles, caches
//	rep, err = s.Run(ctx, sh, vectors)   // replays the plan
//	fut := s.Submit(ctx, sh, vectors)    // async: Future.Wait()
//	reps, err := s.RunBatch(ctx, sh, batches, wse.WithColumnarResult())
//
// Compiled plans also persist: a PlanStore is a content-addressed on-disk
// warehouse of encoded plans (see OpenPlanStore), Session.Export writes a
// session's plans into it, and Session.Warm — or SessionConfig.Store for
// transparent read/write-through — loads them back, so a freshly started
// process serves its first request by replaying a decoded plan instead of
// compiling.
package wse

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// Algorithm names a 1D collective pattern.
type Algorithm = core.Pattern

// The 1D algorithms of the paper's §5. Chain is the pattern the vendor's
// collectives library uses; AutoGen is the paper's automatically generated
// reduce; Auto picks the best algorithm for the given shape from the
// performance model.
const (
	Star     = core.Star
	Chain    = core.Chain
	Tree     = core.Tree
	TwoPhase = core.TwoPhase
	AutoGen  = core.AutoGen
	Auto     = core.Auto
	// Ring and RingDP (the distance-preserving mapping of Figure 7b) are
	// valid for AllReduce only. The paper models the ring and concludes it
	// rarely wins on this fabric; run, it wins where the model says — few
	// PEs, long vectors — and Auto deploys it there. A resolved
	// ReduceScatter or AllGather names Ring for its ring phase; a resolved
	// AllGather's other schedules are Star (through the middle PE) and
	// "gather-flood" (every PE floods its own chunk), which has no constant
	// here because no request names it. KindAllReduceMidRoot also takes
	// Algorithm("fold"): one chain from the start of the row to its end and
	// back into the middle PE, which then floods; its Auto deploys it on
	// long vectors.
	Ring   = core.Ring
	RingDP = core.RingDP
)

// Algorithm2D names a 2D collective mapping (§7): X-Y compositions of the
// 1D patterns, or the Snake chain over the whole grid — and, for AllReduce
// only, the centre root (Centre) and the split, spelled Algorithm2D("split"):
// every row reduce-scatters on its ring, every column all-reduces one chunk,
// every row all-gathers, so the vector crosses each PE about twice where a
// reduce and a flood move it three times. The split needs B >= Width.
type Algorithm2D = core.Pattern2D

// The 2D algorithms. XYChain is the vendor baseline of the paper's 2D
// comparisons; Auto2D selects by model. Centre is valid for AllReduce only:
// every row reduces into its middle PE, the middle column into the grid's
// centre, and the result floods out from there.
const (
	XYStar     = core.XYStar
	XYChain    = core.XYChain
	XYTree     = core.XYTree
	XYTwoPhase = core.XYTwoPhase
	XYAutoGen  = core.XYAutoGen
	Snake      = core.Snake
	Centre     = core.Centre
	Auto2D     = core.Auto2D
)

// ReduceOp is the associative operation applied elementwise.
type ReduceOp = fabric.ReduceOp

// The supported reduction operators.
const (
	Sum = fabric.OpSum
	Max = fabric.OpMax
	Min = fabric.OpMin
)

// Options configure the simulated fabric; the zero value models the
// WSE-2 (T_R = 2, queue depth 4, no clock skew, no thermal throttling).
type Options = fabric.Options

// Report is the outcome of a collective run: simulated cycles, the model
// prediction for the same shape, the result vector(s) and measured fabric
// statistics (energy, contention, queue depths).
type Report = core.Report

// Coord addresses a PE on the grid.
type Coord = mesh.Coord

// ReductionTree is a pre-order reduction tree over a row of PEs; obtain
// one from AutoGenTree to inspect what the generator builds.
type ReductionTree = comm.Tree

// AutoGenTree returns the reduction tree the Auto-Gen generator builds
// for p PEs and b wavelets (§5.5): the tree minimising the model estimate
// over all pre-order trees, reconstructed from the dynamic program. It is
// the tree a run of the autogen algorithm deploys under opt.
func AutoGenTree(p, b int, opt Options) ReductionTree {
	if p < 1 {
		p = 1
	}
	tree, _ := core.TreeFor(core.AutoGen, p, b, core.Params(opt))
	return tree
}

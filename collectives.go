package wse

// Extension collectives beyond the paper's Reduce/AllReduce/Broadcast:
// the remaining MPI-style operations (§2.1 frames the work in MPI
// collective terms), built on the same fabric substrate. Scatter, Gather,
// ReduceScatter and AllGather use balanced per-PE chunks (chunk j belongs
// to PE j; Chunks reports the layout), and AllReduceMidRoot is the
// root-placement optimisation §6.1 attributes to optimized stencil codes.

import (
	"context"

	"repro/internal/core"
)

// Chunks returns the balanced chunk offsets and sizes the chunked
// collectives use for b elements over p PEs: chunk j spans
// [off[j], off[j]+sz[j]) and belongs to PE j.
func Chunks(p, b int) (off, sz []int) { return core.Chunks(p, b) }

// Scatter delivers chunk j of data to PE j along a row of p PEs (chunk 0
// stays at the root). Report.All[pe] holds each PE's chunk.
func Scatter(data []float32, p int, opt Options) (*Report, error) {
	return Run(context.Background(), Shape{Kind: KindScatter, P: p, B: len(data)}, [][]float32{data}, WithOptions(opt))
}

// Gather assembles per-PE chunks into the full vector at the leftmost PE
// (Report.Root). chunks[j] is PE j's contribution, sized per Chunks.
func Gather(chunks [][]float32, opt Options) (*Report, error) {
	return Run(context.Background(), chunkShape(KindGather, chunks), chunks, WithOptions(opt))
}

// ReduceScatter combines one vector per PE elementwise and leaves chunk j
// of the combination on PE j, at its chunk offset within Report.All[pe].
// It is the first phase of the ring AllReduce (§6.2).
func ReduceScatter(vectors [][]float32, op ReduceOp, opt Options) (*Report, error) {
	return Run(context.Background(), reduceShape(KindReduceScatter, vectors, "", op), vectors, WithOptions(opt))
}

// AllGather distributes per-PE chunks so every PE ends with the full
// vector; the second phase of the ring AllReduce.
func AllGather(chunks [][]float32, opt Options) (*Report, error) {
	return Run(context.Background(), chunkShape(KindAllGather, chunks), chunks, WithOptions(opt))
}

// AllReduceMidRoot is AllReduce with the reduction rooted at the middle
// PE and a bidirectional flood outwards, roughly halving the distance and
// depth terms of the naive end-rooted composition (§6.1).
func AllReduceMidRoot(vectors [][]float32, alg Algorithm, op ReduceOp, opt Options) (*Report, error) {
	return Run(context.Background(), reduceShape(KindAllReduceMidRoot, vectors, alg, op), vectors, WithOptions(opt))
}

// PredictScatter, PredictGather, PredictReduceScatter, PredictAllGather
// and PredictAllReduceMidRoot expose the model estimates for the
// extension collectives.
func PredictScatter(p, b int, opt Options) float64 {
	return Predict(Shape{Kind: KindScatter, P: p, B: b}, WithOptions(opt))
}

// PredictGather estimates the chunked gather.
func PredictGather(p, b int, opt Options) float64 {
	return Predict(Shape{Kind: KindGather, P: p, B: b}, WithOptions(opt))
}

// PredictReduceScatter estimates the ring reduce-scatter phase.
func PredictReduceScatter(p, b int, opt Options) float64 {
	return Predict(Shape{Kind: KindReduceScatter, P: p, B: b}, WithOptions(opt))
}

// PredictAllGather estimates the ring allgather phase.
func PredictAllGather(p, b int, opt Options) float64 {
	return Predict(Shape{Kind: KindAllGather, P: p, B: b}, WithOptions(opt))
}

// PredictAllReduceMidRoot estimates the middle-root AllReduce.
func PredictAllReduceMidRoot(alg Algorithm, p, b int, opt Options) float64 {
	return Predict(Shape{Kind: KindAllReduceMidRoot, Alg: alg, P: p, B: b}, WithOptions(opt))
}

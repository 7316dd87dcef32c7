// Iterative stencil solve with fabric-side convergence checks: the HPC
// workload of Rocki et al. [44] and Jacquelin et al. [25] that the paper
// uses as a running example of small-vector (All)Reduce.
//
// Each PE of a row owns a block of a 1D Jacobi heat equation. After every
// local sweep the solver needs the global residual — a scalar Max
// AllReduce across all PEs. Scalar reductions are exactly where the
// vendor's chain is weakest (depth P-1 for one wavelet) and where the
// paper's low-depth patterns shine; the example reports the per-iteration
// communication cost under both.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	wse "repro"
)

const (
	peCount   = 128
	cellsPer  = 32
	tolerance = 1e-3
)

func main() {
	// Global temperature array, block-partitioned: PE i owns cells
	// [i*cellsPer, (i+1)*cellsPer). Boundary cells are held at 0 and 1.
	n := peCount * cellsPer
	u := make([]float64, n)
	u[n-1] = 1
	next := make([]float64, n)

	ctx := context.Background()
	sess := wse.NewSession(wse.SessionConfig{})
	defer sess.Close()
	resShape := wse.Shape{Kind: wse.KindAllReduce, Alg: wse.Auto, P: peCount, B: 1, Op: wse.Max}
	vendorShape := resShape
	vendorShape.Alg = wse.Chain

	var commCycles, vendorCycles int64
	iter := 0
	for {
		iter++
		// Local Jacobi sweep (this would run on the PEs themselves).
		residuals := make([][]float32, peCount)
		for pe := 0; pe < peCount; pe++ {
			var local float64
			lo, hi := pe*cellsPer, (pe+1)*cellsPer
			for c := lo; c < hi; c++ {
				if c == 0 || c == n-1 {
					next[c] = u[c]
					continue
				}
				next[c] = 0.5 * (u[c-1] + u[c+1])
				if d := math.Abs(next[c] - u[c]); d > local {
					local = d
				}
			}
			residuals[pe] = []float32{float32(local)}
		}
		u, next = next, u

		// Fabric-side scalar Max AllReduce: every PE learns the global
		// residual and decides locally whether to stop. The session
		// compiles each shape once and replays it every iteration, and
		// the columnar option skips the per-PE result maps the solver
		// never reads — it only needs Root.
		rep, err := sess.Run(ctx, resShape, residuals, wse.WithColumnarResult())
		if err != nil {
			log.Fatal(err)
		}
		commCycles += rep.Cycles
		vendor, err := sess.Run(ctx, vendorShape, residuals, wse.WithColumnarResult())
		if err != nil {
			log.Fatal(err)
		}
		vendorCycles += vendor.Cycles

		if rep.Root[0] < tolerance || iter >= 200 {
			res := resShape.Resolve() // Auto may root the AllReduce in the middle, as the stencil codes of [25] do
			alg := fmt.Sprintf("%s/%s", res.Kind, res.Alg)
			fmt.Printf("converged after %d iterations (residual %.2e)\n", iter, rep.Root[0])
			fmt.Printf("scalar AllReduce per iteration: %s %d cycles vs vendor chain %d cycles (%.2fx)\n",
				alg, rep.Cycles, vendor.Cycles, float64(vendor.Cycles)/float64(rep.Cycles))
			fmt.Printf("total communication: %d cycles; vendor would have spent %d (%.2fx)\n",
				commCycles, vendorCycles, float64(vendorCycles)/float64(commCycles))
			return
		}
	}
}

// Sparse matrix-vector products with fabric-side collectives: the
// workload of Rocki et al. [44], whose wafer-scale stencil code built its
// AllReduce from a 2D star (efficient only for small vectors, as the
// paper's analysis shows — §9.1).
//
// A conjugate-gradient-style iteration needs, per step:
//   - two scalar AllReduce operations (the dot products alpha and beta),
//   - one larger AllGather to re-assemble the distributed iterate.
//
// This example runs both on the simulated fabric and compares the
// model-chosen patterns against the fixed choices of earlier systems:
// the 2D-star-style reduction of [44] and the vendor chain.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	wse "repro"
)

const (
	peCount = 64  // one row of the wafer
	rowsPer = 128 // matrix rows owned per PE
)

func main() {
	rng := rand.New(rand.NewSource(3))

	// Each PE owns a block of matrix rows and the matching slice of x.
	// Local SpMV partial dot products feed the collectives below.
	local := make([][]float32, peCount)
	for pe := range local {
		v := make([]float32, 1) // the dot-product contribution is scalar
		v[0] = rng.Float32()
		local[pe] = v
	}

	// Scalar AllReduce: the CG dot product. One Shape per candidate
	// mapping — the model's pick, Star (what the stencil code of [44]
	// effectively used) and the vendor chain — all served through one
	// session so each compiles once.
	ctx := context.Background()
	sess := wse.NewSession(wse.SessionConfig{})
	defer sess.Close()
	opts := wse.Options{}
	dot := wse.Shape{Kind: wse.KindAllReduce, Alg: wse.Auto, P: peCount, B: 1, Op: wse.Sum}
	runDot := func(alg wse.Algorithm) *wse.Report {
		sh := dot
		sh.Alg = alg
		rep, err := sess.Run(ctx, sh, local)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	auto, star, chain := runDot(wse.Auto), runDot(wse.Star), runDot(wse.Chain)
	res := dot.Resolve(wse.WithOptions(opts)) // the kind too: Auto may root the AllReduce in the middle
	alg := fmt.Sprintf("%s/%s", res.Kind, res.Alg)
	fmt.Printf("scalar dot-product AllReduce on %d PEs:\n", peCount)
	fmt.Printf("  model pick (%s): %4d cycles (bound %.0f)\n", alg, auto.Cycles, wse.Bound(dot))
	fmt.Printf("  star  (as in Rocki et al.): %4d cycles\n", star.Cycles)
	fmt.Printf("  chain (vendor):             %4d cycles\n", chain.Cycles)

	// A CG step needs two dot products back to back: batch them so the
	// fixed per-run costs (bind + result assembly) are paid once.
	if reps, err := sess.RunBatch(ctx, dot, [][][]float32{local, local}, wse.WithColumnarResult()); err != nil {
		log.Fatal(err)
	} else if reps[0].Root[0] != auto.Root[0] {
		log.Fatalf("batched dot product diverged: %v vs %v", reps[0].Root[0], auto.Root[0])
	}

	// Iterate re-assembly: each PE contributes its rowsPer slice of the
	// new iterate; AllGather distributes the full vector to everyone.
	n := peCount * rowsPer
	_, sz := wse.Chunks(peCount, n)
	chunks := make([][]float32, peCount)
	for pe := range chunks {
		c := make([]float32, sz[pe])
		for i := range c {
			c[i] = rng.Float32()
		}
		chunks[pe] = c
	}
	agShape := wse.Shape{Kind: wse.KindAllGather, P: peCount, B: n}
	ag, err := sess.Run(ctx, agShape, chunks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\niterate AllGather of %d floats: %d cycles (predicted %.0f)\n",
		n, ag.Cycles, wse.Predict(agShape, wse.WithOptions(opts)))

	// Verify the assembled iterate on a sample PE.
	full := ag.All[wse.Coord{X: peCount / 2, Y: 0}]
	idx := 0
	for pe := range chunks {
		for i := range chunks[pe] {
			if full[idx] != chunks[pe][i] {
				log.Fatalf("allgather mismatch at %d", idx)
			}
			idx++
		}
	}
	fmt.Println("iterate verified identical on all PEs")

	// Per-iteration communication budget, as a CG user would see it.
	perIter := 2*auto.Cycles + ag.Cycles
	vendor := 2*chain.Cycles + ag.Cycles
	fmt.Printf("\nper-CG-iteration communication: %d cycles with model-driven picks, %d with the vendor chain (%.2fx)\n",
		perIter, vendor, float64(vendor)/float64(perIter))
}

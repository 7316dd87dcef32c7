// Quickstart for the Shape-first API: one Shape, three verbs — Run
// (execute on the simulated fabric), Predict (the paper's performance
// model) and Bound (the runtime lower bound) — plus the async Submit and
// the amortised RunBatch.
package main

import (
	"context"
	"fmt"
	"log"

	wse "repro"
)

func main() {
	// 32 PEs in a row, each holding an 8-element vector. wse.Auto asks
	// the performance model to choose among Star, Chain (the vendor's
	// pattern), Tree, Two-Phase and the Auto-Gen generated tree.
	const p, b = 32, 8
	sh := wse.Shape{Kind: wse.KindAllReduce, Alg: wse.Auto, P: p, B: b, Op: wse.Sum}
	if err := sh.Validate(); err != nil {
		log.Fatal(err)
	}
	vectors := make([][]float32, p)
	for i := range vectors {
		v := make([]float32, b)
		for j := range v {
			v[j] = float32(i + j)
		}
		vectors[i] = v
	}
	ctx := context.Background()

	// One-shot: compile, simulate, report.
	rep, err := wse.Run(ctx, sh, vectors)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AllReduce of %d wavelets across %d PEs\n", b, p)
	fmt.Printf("  simulated        %d cycles (%.3f us at 850 MHz)\n", rep.Cycles, float64(rep.Cycles)/850)
	fmt.Printf("  model predicted  %.0f cycles\n", wse.Predict(sh))
	fmt.Printf("  lower bound      %.0f cycles\n", wse.Bound(sh))
	fmt.Printf("  result           %v\n", rep.Root)
	fmt.Printf("  fabric energy    %d wavelet-hops\n", rep.Stats.Hops)

	// Every PE holds the combined vector after an AllReduce.
	for c, v := range rep.All {
		if v[0] != rep.Root[0] {
			log.Fatalf("PE %v disagrees: %v", c, v[0])
		}
	}
	fmt.Printf("  all %d PEs hold the combined vector\n", p)

	// The paper's headline: the model-picked pattern vs the vendor chain.
	vendor := sh
	vendor.Alg = wse.Chain
	fmt.Printf("  predicted speedup over vendor chain: %.2fx\n",
		wse.Predict(vendor)/wse.Predict(sh))

	// A Session compiles the shape once and replays the cached plan;
	// Submit is the async spelling of the same call.
	s := wse.NewSession(wse.SessionConfig{})
	defer s.Close()
	fut := s.Submit(ctx, sh, vectors)
	if rep2, err := fut.Wait(); err != nil {
		log.Fatal(err)
	} else if rep2.Cycles != rep.Cycles {
		log.Fatalf("replay diverged: %d vs %d cycles", rep2.Cycles, rep.Cycles)
	}
	fmt.Println("  async replay through a Session is bit-identical")

	// RunBatch replays one plan across many input sets with the fixed
	// per-run costs amortised; WithColumnarResult also skips the per-PE
	// result maps for callers that only read Report.Root.
	batches := make([][][]float32, 4)
	for i := range batches {
		batches[i] = vectors
	}
	reps, err := s.RunBatch(ctx, sh, batches, wse.WithColumnarResult())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  batch of %d replays: every root[0] = %.0f\n", len(reps), reps[0].Root[0])
}

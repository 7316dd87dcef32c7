// Data-parallel gradient AllReduce on a 2D PE grid: the deep-learning
// workload that motivates the paper (§1.1: Reduce/AllReduce are "critical
// in GEMV and GEMM kernels for fields like deep learning").
//
// A 16×16 grid of simulated PEs each computes a local gradient; one
// training step AllReduces the gradients so every worker holds the global
// average. Gradient sizes span scalars (a learning-rate signal) to large
// layer shards, and the example shows how the model-driven selection
// switches 2D mappings across that range — and what it buys over the
// vendor's X-Y chain.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	wse "repro"
)

const side = 16

func main() {
	rng := rand.New(rand.NewSource(7))
	sess := wse.NewSession(wse.SessionConfig{})
	defer sess.Close()
	fmt.Printf("data-parallel AllReduce on a %dx%d PE grid (one gradient shard per PE)\n\n", side, side)
	fmt.Printf("%10s %12s %12s %10s %10s %8s\n", "grad size", "algorithm", "cycles", "us@850MHz", "vendor", "speedup")

	for _, b := range []int{1, 16, 256, 2048} {
		grads := make([][]float32, side*side)
		for i := range grads {
			g := make([]float32, b)
			for j := range g {
				g[j] = rng.Float32() - 0.5
			}
			grads[i] = g
		}

		// One Shape describes the step's collective; the vendor baseline
		// is the same Shape with the mapping pinned to the X-Y chain.
		sh := wse.Shape{Kind: wse.KindAllReduce2D, Alg2D: wse.Auto2D,
			Width: side, Height: side, B: b, Op: wse.Sum}
		vendorShape := sh
		vendorShape.Alg2D = wse.XYChain

		// Submit both runs asynchronously and overlap them — the async
		// tier of the Shape-first API.
		ctx := context.Background()
		repFut := sess.Submit(ctx, sh, grads)
		vendorFut := sess.Submit(ctx, vendorShape, grads)
		rep, err := repFut.Wait()
		if err != nil {
			log.Fatal(err)
		}
		vendor, err := vendorFut.Wait()
		if err != nil {
			log.Fatal(err)
		}
		alg := sh.Resolve().Alg2D

		// Every worker applies the averaged gradient; verify agreement
		// against a serial sum on a few sampled coordinates.
		var want float32
		for i := range grads {
			want += grads[i][0]
		}
		for c, v := range rep.All {
			if d := v[0] - want; d > 1e-2 || d < -1e-2 {
				log.Fatalf("b=%d: PE %v got %v, want %v", b, c, v[0], want)
			}
		}

		fmt.Printf("%9dB %12s %12d %10.2f %10d %7.2fx\n",
			4*b, alg, rep.Cycles, float64(rep.Cycles)/850, vendor.Cycles,
			float64(vendor.Cycles)/float64(rep.Cycles))
	}

	fmt.Println("\nThe winning mapping changes with gradient size, exactly the effect")
	fmt.Println("Figure 10 of the paper maps out; a fixed vendor pattern leaves that")
	fmt.Println("speedup on the table for every step of training.")
}

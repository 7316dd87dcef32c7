// GEMV on a row of wafer-scale PEs: the motivating 1D workload of the
// paper (§3: reductions over "a part of a row or column of the device...
// important in its own right for applications such as GEMV").
//
// The matrix A (m×n) is partitioned column-wise across P PEs. Each PE
// multiplies its column block with its slice of x locally, producing a
// partial result vector of length m; the partial vectors are then summed
// with a 1D Reduce to the leftmost PE. The reduce vector length is m — as
// m varies from a few elements to thousands, the best reduction pattern
// changes, which is exactly the regime the paper's model-driven selection
// targets.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	wse "repro"
)

const peCount = 64

func main() {
	rng := rand.New(rand.NewSource(42))
	for _, m := range []int{4, 64, 1024, 8192} {
		n := peCount * 4 // four columns of A per PE
		a := randomMatrix(rng, m, n)
		x := randomVector(rng, n)

		// Local compute: PE i owns columns [i*4, i*4+4).
		partials := make([][]float32, peCount)
		cols := n / peCount
		for pe := 0; pe < peCount; pe++ {
			part := make([]float32, m)
			for c := pe * cols; c < (pe+1)*cols; c++ {
				for r := 0; r < m; r++ {
					part[r] += a[r][c] * x[c]
				}
			}
			partials[pe] = part
		}

		// Communication: sum the partial vectors on the fabric. The reduce
		// shape varies with m, which is exactly what the Shape-first API
		// names: one Shape value drives the run and both model queries.
		sh := wse.Shape{Kind: wse.KindReduce, Alg: wse.Auto, P: peCount, B: m, Op: wse.Sum}
		rep, err := wse.Run(context.Background(), sh, partials)
		if err != nil {
			log.Fatal(err)
		}
		alg := sh.Resolve().Alg

		// Verify against a serial GEMV.
		want := serialGEMV(a, x)
		for r := 0; r < m; r++ {
			if diff := rep.Root[r] - want[r]; diff > 1e-2 || diff < -1e-2 {
				log.Fatalf("m=%d row %d: fabric %v, serial %v", m, r, rep.Root[r], want[r])
			}
		}

		vendorShape := sh
		vendorShape.Alg = wse.Chain
		vendor := wse.Predict(vendorShape)
		fmt.Printf("GEMV %5dx%d on %d PEs: reduce alg=%-8s %7d cycles (vendor chain would predict %7.0f, %4.2fx; bound %6.0f)\n",
			m, n, peCount, alg, rep.Cycles, vendor, vendor/float64(rep.Cycles), wse.Bound(sh))
	}
}

func randomMatrix(rng *rand.Rand, m, n int) [][]float32 {
	a := make([][]float32, m)
	for i := range a {
		a[i] = randomVector(rng, n)
	}
	return a
}

func randomVector(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32() - 0.5
	}
	return v
}

func serialGEMV(a [][]float32, x []float32) []float32 {
	y := make([]float32, len(a))
	for r := range a {
		var s float32
		for c := range x {
			s += a[r][c] * x[c]
		}
		y[r] = s
	}
	return y
}

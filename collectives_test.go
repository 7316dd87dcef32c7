package wse

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, p := range []int{2, 5, 16} {
		for _, b := range []int{p, 3*p + 1, 16 * p} {
			data := make([]float32, b)
			for i := range data {
				data[i] = float32(i) * 0.5
			}
			rep, err := Run(context.Background(), Shape{Kind: KindScatter, P: p, B: b}, [][]float32{data})
			if err != nil {
				t.Fatalf("scatter p=%d b=%d: %v", p, b, err)
			}
			off, sz := Chunks(p, b)
			chunks := make([][]float32, p)
			for j := 0; j < p; j++ {
				got := rep.All[Coord{X: j, Y: 0}]
				chunk := got[:sz[j]]
				for e := 0; e < sz[j]; e++ {
					if chunk[e] != data[off[j]+e] {
						t.Fatalf("p=%d b=%d chunk %d elem %d: %v want %v", p, b, j, e, chunk[e], data[off[j]+e])
					}
				}
				chunks[j] = append([]float32(nil), chunk...)
			}
			// Gather the scattered chunks back: identity round trip.
			rep2, err := Run(context.Background(), Shape{Kind: KindGather, P: p, B: b}, chunks)
			if err != nil {
				t.Fatalf("gather p=%d b=%d: %v", p, b, err)
			}
			for i := range data {
				if rep2.Root[i] != data[i] {
					t.Fatalf("p=%d b=%d roundtrip elem %d: %v want %v", p, b, i, rep2.Root[i], data[i])
				}
			}
		}
	}
}

func TestReduceScatterThenAllGatherEqualsAllReduce(t *testing.T) {
	// The MPI identity: ReduceScatter ∘ AllGather == AllReduce.
	for _, p := range []int{4, 8, 13} {
		b := 4*p + 3
		vecs, want := vectorsFor(p, b, int64(p))
		rs, err := Run(context.Background(), Shape{Kind: KindReduceScatter, P: p, B: b, Op: Sum}, vecs)
		if err != nil {
			t.Fatalf("reduce-scatter p=%d: %v", p, err)
		}
		off, sz := Chunks(p, b)
		chunks := make([][]float32, p)
		for j := 0; j < p; j++ {
			acc := rs.All[Coord{X: j, Y: 0}]
			chunks[j] = append([]float32(nil), acc[off[j]:off[j]+sz[j]]...)
			// Verify the reduce-scatter chunk itself.
			for e := 0; e < sz[j]; e++ {
				if d := math.Abs(float64(chunks[j][e] - want[off[j]+e])); d > 1e-2 {
					t.Fatalf("p=%d chunk %d elem %d: %v want %v", p, j, e, chunks[j][e], want[off[j]+e])
				}
			}
		}
		ag, err := Run(context.Background(), Shape{Kind: KindAllGather, P: p, B: b}, chunks)
		if err != nil {
			t.Fatalf("allgather p=%d: %v", p, err)
		}
		for c, v := range ag.All {
			requireClose(t, v, want, fmt.Sprintf("p=%d %v", p, c))
		}
	}
}

func TestAllReduceMidRoot(t *testing.T) {
	for _, alg := range []Algorithm{Chain, Tree, TwoPhase, AutoGen, Auto} {
		for _, p := range []int{2, 3, 9, 32} {
			b := 24
			vecs, want := vectorsFor(p, b, int64(p*7))
			rep, err := Run(context.Background(), Shape{Kind: KindAllReduceMidRoot, Alg: alg, P: p, B: b, Op: Sum}, vecs)
			if err != nil {
				t.Fatalf("%s p=%d: %v", alg, p, err)
			}
			for c, v := range rep.All {
				requireClose(t, v, want, fmt.Sprintf("%s p=%d %v", alg, p, c))
			}
		}
	}
}

func TestMidRootBeatsEndRootForWideRows(t *testing.T) {
	// The point of the optimisation: halved distance/depth terms. For a
	// wide row and intermediate vectors the middle-root AllReduce should
	// beat the end-rooted one with the same base pattern.
	p, b := 129, 64
	vecs, _ := vectorsFor(p, b, 3)
	sh := Shape{Kind: KindAllReduce, Alg: TwoPhase, P: p, B: b, Op: Sum}
	end, err := Run(context.Background(), sh, vecs)
	if err != nil {
		t.Fatal(err)
	}
	sh.Kind = KindAllReduceMidRoot
	mid, err := Run(context.Background(), sh, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Cycles >= end.Cycles {
		t.Errorf("mid-root %d cycles, end-root %d: optimisation did not pay", mid.Cycles, end.Cycles)
	}
}

func TestRingAllReducePublicAPI(t *testing.T) {
	for _, alg := range []Algorithm{Ring, RingDP} {
		p, b := 8, 64
		vecs, want := vectorsFor(p, b, 11)
		rep, err := Run(context.Background(), Shape{Kind: KindAllReduce, Alg: alg, P: p, B: b, Op: Sum}, vecs)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for c, v := range rep.All {
			requireClose(t, v, want, fmt.Sprintf("%s %v", alg, c))
		}
		if rep.Predicted <= 0 {
			t.Errorf("%s: prediction %v", alg, rep.Predicted)
		}
	}
	// Ring is AllReduce-only.
	if _, err := Run(context.Background(), Shape{Kind: KindReduce, Alg: Ring, P: 2, B: 1, Op: Sum}, [][]float32{{1}, {2}}); err == nil {
		t.Error("reduce accepted the ring pattern")
	}
}

func TestChunksProperty(t *testing.T) {
	f := func(pRaw, bRaw uint16) bool {
		p := int(pRaw%64) + 1
		b := int(bRaw%2048) + p
		off, sz := Chunks(p, b)
		total := 0
		for j := 0; j < p; j++ {
			if sz[j] < b/p || sz[j] > b/p+1 {
				return false
			}
			if off[j] != total {
				return false
			}
			total += sz[j]
		}
		return total == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtensionPredictions(t *testing.T) {
	for _, kind := range []Collective{KindScatter, KindGather, KindReduceScatter, KindAllGather, KindAllReduceMidRoot} {
		if v := Predict(Shape{Kind: kind, Alg: TwoPhase, P: 64, B: 512}); v <= 0 || math.IsNaN(v) {
			t.Errorf("%s: prediction %v", kind, v)
		}
	}
	// Mid-root should predict better than end-root for wide rows.
	wide := Shape{Kind: KindAllReduce, Alg: TwoPhase, P: 257, B: 64}
	mid := wide
	mid.Kind = KindAllReduceMidRoot
	if Predict(mid) >= Predict(wide) {
		t.Error("mid-root prediction not better for wide rows")
	}
}

package wse

// Benchmark of the batch-replay tier: what one replay of the tracked
// reduce1d p=512 B=16 shape costs as a single Session.Run versus as one
// entry of a RunBatch, in both result layouts. The per-run fixed cost of
// a single replay is input binding plus result-map assembly (~100µs at
// p=512); batching amortises the scheduling and plan lookup, and the
// columnar layout removes the maps entirely. The headline numbers are
// written to BENCH_api.json as a trajectory point.

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// minChunkNs runs fn b.N times in chunks and returns the fastest per-call
// average across chunks. Replays are deterministic, so the minimum chunk
// estimates the uncontended per-run cost; the JSON trajectory numbers use
// it because a plain mean smears neighbour and scheduler interference
// into the sub-millisecond differences the file exists to track. The
// framework's own ns/op stays the mean.
func minChunkNs(b *testing.B, chunk int, fn func()) float64 {
	best := math.Inf(1)
	for done := 0; done < b.N; {
		n := min(chunk, b.N-done)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el := float64(time.Since(start).Nanoseconds()) / float64(n); el < best {
			best = el
		}
		done += n
	}
	return best
}

// BenchmarkBatchReplay measures per-run replay cost in four modes:
// {single, batch} × {map, columnar}. The acceptance bar is the batch
// columns sitting below their single-run counterparts — batch replay
// must cut the per-run fixed overhead.
func BenchmarkBatchReplay(b *testing.B) {
	const batchN = 16
	sh := Shape{Kind: KindReduce, Alg: Auto, P: planBenchP, B: planBenchB, Op: Sum}
	vectors := constVectors(planBenchP, planBenchB)
	batches := make([][][]float32, batchN)
	for i := range batches {
		batches[i] = vectors
	}
	ctx := context.Background()
	sess := NewSession(SessionConfig{})
	defer sess.Close()
	if _, err := sess.Run(ctx, sh, vectors); err != nil { // compile + warm the pool
		b.Fatal(err)
	}

	point := map[string]any{
		"bench":      "batch-replay",
		"batch_size": batchN,
		"shape": map[string]any{
			"kind": "reduce1d", "alg": "auto",
			"p": planBenchP, "b": planBenchB,
		},
	}
	benchHostMeta(point)

	perRun := map[string]float64{}
	modes := []struct {
		name string
		opts []Option
	}{
		{"map", nil},
		{"columnar", []Option{WithColumnarResult()}},
	}
	for _, mode := range modes {
		b.Run("single-"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			perRun["single_"+mode.name+"_ns_per_run"] = minChunkNs(b, 8, func() {
				if _, err := sess.Run(ctx, sh, vectors, mode.opts...); err != nil {
					b.Fatal(err)
				}
			})
		})
		b.Run("batch-"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			// Per replayed run, not per RunBatch call: the comparison
			// against the single column is what the batch tier is for.
			perRun["batch_"+mode.name+"_ns_per_run"] = minChunkNs(b, 8, func() {
				if _, err := sess.RunBatch(ctx, sh, batches, mode.opts...); err != nil {
					b.Fatal(err)
				}
			}) / batchN
		})
		b.Run("saving-"+mode.name, func(b *testing.B) {
			// The headline saving is a paired difference: each iteration
			// times batchN single replays against one RunBatch of the same
			// batchN runs, back to back, and the median per-run difference
			// is reported. Subtracting two separately-timed benchmarks
			// inherits both benchmarks' noise — more than the ~100µs fixed
			// cost the batch tier removes — where interference during a
			// pair inflates both halves and largely cancels.
			diffs := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for j := 0; j < batchN; j++ {
					if _, err := sess.Run(ctx, sh, vectors, mode.opts...); err != nil {
						b.Fatal(err)
					}
				}
				singles := time.Since(start)
				start = time.Now()
				if _, err := sess.RunBatch(ctx, sh, batches, mode.opts...); err != nil {
					b.Fatal(err)
				}
				batched := time.Since(start)
				diffs = append(diffs, float64((singles-batched).Nanoseconds())/batchN)
			}
			sort.Float64s(diffs)
			med := diffs[len(diffs)/2]
			perRun["batch_saving_"+mode.name+"_ns_per_run"] = med
			b.ReportMetric(med, "saved-ns/run")
		})
	}

	single, batchCol := perRun["single_map_ns_per_run"], perRun["batch_columnar_ns_per_run"]
	if single > 0 && batchCol > 0 {
		for k, v := range perRun {
			point[k] = v
		}
		// The headline savings come from the paired-difference
		// sub-benchmarks above, already in perRun; the ratio still
		// compares the absolute best-of-chunk columns.
		point["single_map_vs_batch_columnar"] = single / batchCol
		b.ReportMetric(single/batchCol, "overhead-cut-x")
		buf, err := json.MarshalIndent(point, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_api.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("BENCH_api.json not written: %v", err)
		}
	}
}

package wse_test

// Benchmark of the workload autotuner: tune the example training-step
// workload's shapes, verify the winners land in a plan store a cold
// session replays with zero compiles, and write BENCH_tune.json — per
// tuned kind, the measured-vs-lower-bound optimality ratio (the paper's
// Figure 1 question, answered with measured cycles) and the speedup
// tuning bought over the untuned request.
//
// This file is an external test package (wse_test): the tune package
// imports repro, so it cannot be imported from package wse itself.

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	wse "repro"
	"repro/internal/workload"
	"repro/internal/workload/tune"
)

// tuneBenchHostMeta mirrors benchHostMeta (package wse, unreachable
// from an external test package): the uniform host stamp every
// BENCH_*.json point carries.
func tuneBenchHostMeta(point map[string]any) {
	point["host_cores"] = runtime.NumCPU()
	point["gomaxprocs"] = runtime.GOMAXPROCS(0)
	if runtime.NumCPU() == 1 {
		point["host_note"] = "single-core host: concurrent/sharded numbers show overhead parity and queueing, not parallel speedup; re-measure on a multi-core box"
	}
}

// tuneBenchWorkload is the shape mix BENCH_tune.json scores: the
// training-step DAG of examples/workloads/trainstep.wl.
func tuneBenchWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	w, err := workload.New("train-step").
		Step("halo", workload.Params{"p": "64", "b": "256"}).
		Step("gemv", workload.Params{"p": "64", "b": "256"}, "halo").
		Step("allreduce", workload.Params{"p": "64", "b": "256", "name": "grad-allreduce"}, "gemv").
		Step("allreduce", workload.Params{"p": "64", "b": "64", "op": "max", "name": "grad-norm"}, "gemv").
		Step("reducescatter", workload.Params{"p": "64", "b": "256", "name": "optim"}, "grad-allreduce", "grad-norm").
		Step("allgather", workload.Params{"p": "64", "b": "256", "name": "redistribute"}, "optim").
		Build()
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkTune(b *testing.B) {
	ctx := context.Background()
	w := tuneBenchWorkload(b)
	cfg := tune.Config{}

	var tunings []tune.Tuning
	var tuneWall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		var err error
		tunings, err = tune.Tune(ctx, w.Shapes(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		tuneWall = time.Since(start)
	}
	b.StopTimer()

	// The winners must persist and serve cold: export into a store, open
	// a fresh session on it, and replay every tuned shape — zero
	// compiles, every miss satisfied by the store, cycles unchanged.
	store, err := wse.OpenPlanStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	exported, err := tune.ExportWinners(ctx, tunings, store)
	if err != nil {
		b.Fatal(err)
	}
	cold := wse.NewSession(wse.SessionConfig{Store: store, PlanCacheCapacity: 32})
	defer cold.Close()
	for _, t := range tunings {
		sh := t.Tuned()
		rep, err := cold.Run(ctx, sh, workload.BaseInputs(sh, "tune:"+string(sh.Kind)), wse.WithOptions(t.Options))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Cycles != t.Cycles {
			b.Fatalf("%s: cold replay %d cycles, tuned %d", sh.Kind, rep.Cycles, t.Cycles)
		}
	}
	stats := cold.PlanStats()
	if stats.StoreHits != stats.Misses {
		b.Fatalf("cold session compiled: %d store hits of %d misses", stats.StoreHits, stats.Misses)
	}

	var kinds []map[string]any
	for _, t := range tunings {
		if t.TunedVsDefault < 1 {
			b.Fatalf("%s: tuning made the shape slower: %v", t.Shape.Kind, t.TunedVsDefault)
		}
		alg := string(t.Tuned().Alg)
		if a2 := string(t.Tuned().Alg2D); a2 != "" {
			alg = a2
		}
		kinds = append(kinds, map[string]any{
			"kind":              string(t.Shape.Kind),
			"p":                 t.Shape.P,
			"b":                 t.Shape.B,
			"alg":               alg,
			"queue_cap":         t.Options.QueueCap,
			"default_cycles":    t.DefaultCycles,
			"tuned_cycles":      t.Cycles,
			"bound_cycles":      t.Bound,
			"achieved_vs_bound": t.AchievedVsBound,
			"tuned_vs_default":  t.TunedVsDefault,
		})
		b.ReportMetric(t.AchievedVsBound, string(t.Shape.Kind)+"_vs_bound")
	}

	point := map[string]any{
		"bench":           "BenchmarkTune",
		"workload":        w.Name,
		"shapes_tuned":    len(tunings),
		"tune_wall_ns":    tuneWall.Nanoseconds(),
		"plans_exported":  exported,
		"cold_store_hits": stats.StoreHits,
		"cold_misses":     stats.Misses,
		"cold_compiles":   stats.Misses - stats.StoreHits,
		"per_kind":        kinds,
		"note":            "achieved_vs_bound: measured winner cycles over the paper's runtime lower bound; tuned_vs_default: untuned-request cycles over winner cycles (>=1, the default is a candidate)",
	}
	tuneBenchHostMeta(point)
	buf, err := json.MarshalIndent(point, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_tune.json", append(buf, '\n'), 0o644); err != nil {
		b.Logf("BENCH_tune.json not written: %v", err)
	}
}

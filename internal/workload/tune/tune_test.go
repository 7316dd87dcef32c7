package tune

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	wse "repro"
	"repro/internal/workload"
)

// fastCfg keeps the search grid small so the tests stay quick; the axes
// themselves are still exercised.
func fastCfg() Config {
	return Config{QueueCaps: []int{2, 4}}
}

func TestTuneScoresAndWinner(t *testing.T) {
	shapes := []wse.Shape{
		{Kind: wse.KindAllReduce, P: 16, B: 32},
		{Kind: wse.KindGather, P: 8, B: 64},
		{Kind: wse.KindAllReduce2D, Width: 4, Height: 3, B: 8},
		{Kind: wse.KindAllReduce, P: 16, B: 32}, // duplicate: must dedup
	}
	cfg := fastCfg()
	cfg.Options.Shards = 2 // not a search axis: tunings keep the baseline's
	tunings, err := Tune(context.Background(), shapes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tunings) != 3 {
		t.Fatalf("want 3 tunings (duplicate deduped), got %d", len(tunings))
	}
	for _, tn := range tunings {
		if tn.Options.Shards != 2 {
			t.Fatalf("%s: tuned options carry Shards %d, baseline 2", tn.Shape.Kind, tn.Options.Shards)
		}
		if tn.Cycles <= 0 || tn.DefaultCycles <= 0 {
			t.Fatalf("%s: non-positive cycles %+v", tn.Shape.Kind, tn)
		}
		if tn.Cycles > tn.DefaultCycles {
			t.Fatalf("%s: winner slower than the default it had as a candidate: %d > %d",
				tn.Shape.Kind, tn.Cycles, tn.DefaultCycles)
		}
		if tn.TunedVsDefault < 1 {
			t.Fatalf("%s: tuned_vs_default %v < 1", tn.Shape.Kind, tn.TunedVsDefault)
		}
		if tn.Bound <= 0 || tn.AchievedVsBound <= 0 {
			t.Fatalf("%s: missing bound scores: %+v", tn.Shape.Kind, tn)
		}
		// Bound is a lower bound: the measured run cannot beat it.
		if tn.AchievedVsBound < 0.999 {
			t.Fatalf("%s: measured cycles %d beat the lower bound %v",
				tn.Shape.Kind, tn.Cycles, tn.Bound)
		}
	}
	// The reduce-family tunings keep the open (Auto) request spelling and
	// a concrete winner in Tuned().
	ar := tunings[0]
	if ar.Shape.Alg != wse.Auto {
		t.Fatalf("allreduce tuning shape not normalized to Auto: %+v", ar.Shape)
	}
	if got := ar.Tuned(); got.Alg == wse.Auto && ar.Alg != "" {
		t.Fatalf("Tuned() did not apply the winning algorithm: %+v", got)
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	tunings, err := Tune(context.Background(), []wse.Shape{
		{Kind: wse.KindReduce, P: 12, B: 24},
		{Kind: wse.KindBroadcast, P: 8, B: 16},
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tunings.json")
	if err := WriteSidecar(path, "round-trip", tunings); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Version != SidecarVersion || sc.Workload != "round-trip" {
		t.Fatalf("sidecar header %+v", sc)
	}
	if !reflect.DeepEqual(sc.Tunings, tunings) {
		t.Fatalf("tunings did not round-trip:\n got %+v\nwant %+v", sc.Tunings, tunings)
	}

	// A sidecar written before the Shards axis was dropped still loads: its
	// replay_ns field is ignored.
	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, []byte(`{"version":1,"tunings":[{"shape":{"Kind":"gather","P":8,"B":64},"options":{"QueueCap":4,"Shards":2},"cycles":90,"default_cycles":100,"replay_ns":51234.5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if sc, err := LoadSidecar(old); err != nil || len(sc.Tunings) != 1 || sc.Tunings[0].Cycles != 90 || sc.Tunings[0].Options.Shards != 2 {
		t.Fatalf("sidecar carrying replay_ns: %+v, %v", sc, err)
	}

	// A sidecar from the future is rejected, not misread.
	future := filepath.Join(t.TempDir(), "future.json")
	buf, err := json.Marshal(Sidecar{Version: SidecarVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(future, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSidecar(future); err == nil {
		t.Fatal("want version rejection")
	}
}

func TestApplyRewritesOnlyOpenSteps(t *testing.T) {
	w, err := workload.New("train").
		Step("allreduce", workload.Params{"p": "12", "b": "24"}).                                // open: alg defaults to auto
		Step("allreduce", workload.Params{"p": "12", "b": "24", "alg": "chain", "name": "pin"}). // pinned by the user
		Step("broadcast", workload.Params{"p": "8", "b": "16"}).                                 // algorithm-free: always open
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tunings, err := Tune(context.Background(), w.Shapes(), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	applied := Apply(w, tunings)
	if applied != 2 {
		t.Fatalf("want 2 steps rewritten (open allreduce + broadcast), got %d", applied)
	}
	if pin := w.Step("pin"); pin.Opt != nil || pin.Shape.Alg != wse.Chain {
		t.Fatalf("pinned step was rewritten: %+v", pin)
	}
	open := w.Step("allreduce")
	if open.Opt == nil {
		t.Fatal("open step did not adopt tuned options")
	}
	if open.Shape.Alg == "" || open.Shape.Alg == wse.Auto {
		// Tuned() falls back to Auto only when no concrete candidate won;
		// either way the step must now run under the tuned options.
		t.Logf("open step kept Auto (model choice already optimal): %+v", open.Shape)
	}
	// Applied steps still validate and run.
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The satellite-6 contract: ExportWinners lands the tuned plans in a
// plan store, and a cold session opening that store replays them with
// ZERO compiles — every cache miss is satisfied by the store.
func TestExportWinnersColdSessionZeroCompiles(t *testing.T) {
	ctx := context.Background()
	tunings, err := Tune(ctx, []wse.Shape{
		{Kind: wse.KindAllReduce, P: 12, B: 24},
		{Kind: wse.KindBroadcast, P: 8, B: 16},
		{Kind: wse.KindReduce2D, Width: 3, Height: 2, B: 12},
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}

	store, err := wse.OpenPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n, err := ExportWinners(ctx, tunings, store)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(tunings) {
		t.Fatalf("exported %d plans, want %d", n, len(tunings))
	}

	cold := wse.NewSession(wse.SessionConfig{Store: store, PlanCacheCapacity: 16})
	defer cold.Close()
	for _, tn := range tunings {
		sh := tn.Tuned()
		rep, err := cold.Run(ctx, sh, workload.BaseInputs(sh, "tune:"+string(sh.Kind)), wse.WithOptions(tn.Options))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles != tn.Cycles {
			t.Fatalf("%s: cold replay %d cycles, tuned %d — store served a different plan",
				sh.Kind, rep.Cycles, tn.Cycles)
		}
	}
	stats := cold.PlanStats()
	if stats.Misses != int64(len(tunings)) {
		t.Fatalf("cold session misses %d, want %d", stats.Misses, len(tunings))
	}
	if stats.StoreHits != stats.Misses {
		t.Fatalf("cold session compiled: store hits %d of %d misses (errors: %d %q)",
			stats.StoreHits, stats.Misses, stats.StoreErrors, stats.LastStoreError)
	}
}

package fabric_test

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
)

var updateStats = flag.Bool("update", false, "regenerate testdata/stats.golden from this build's engine")

// statsShapes fixes one shape per collective kind, with concrete (non-Auto)
// algorithms so the pinned numbers move only when the engine does, never
// when the performance model's selections improve. ReduceScatter takes no
// algorithm: statsSpec pins it to the ring.
func statsShapes() []plan.Request {
	return []plan.Request{
		{Kind: plan.Reduce1D, Alg: core.TwoPhase, P: 24, B: 32},
		{Kind: plan.AllReduce1D, Alg: core.Tree, P: 17, B: 24},
		{Kind: plan.AllReduceMidRoot, Alg: core.Chain, P: 15, B: 20},
		{Kind: plan.Broadcast1D, P: 19, B: 33},
		{Kind: plan.Scatter, P: 12, B: 50},
		{Kind: plan.Gather, P: 12, B: 50},
		{Kind: plan.ReduceScatter, P: 9, B: 40},
		{Kind: plan.AllGather, P: 9, B: 40},
		{Kind: plan.Reduce2D, Alg2D: core.XYTree, Width: 5, Height: 4, B: 16},
		{Kind: plan.AllReduce2D, Alg2D: core.Snake, Width: 4, Height: 3, B: 12},
		{Kind: plan.Broadcast2D, Width: 6, Height: 3, B: 21},
	}
}

// statsVariants are the engine configurations every shape is pinned under:
// each one steers the cycle loop down a different path (RNG chain, task
// wake-up stalls, backpressure at three depths, zero-latency ramps, the
// shard barrier with and without cross-shard wakes).
func statsVariants() []struct {
	name string
	opt  fabric.Options
} {
	return []struct {
		name string
		opt  fabric.Options
	}{
		{"plain", fabric.Options{}},
		{"skew+thermal", fabric.Options{ClockSkewMax: 50, ThermalNoopRate: 0.2, Seed: 7}},
		{"activation", fabric.Options{TaskActivation: 3}},
		{"qcap1", fabric.Options{QueueCap: 1}},
		{"qcap2", fabric.Options{QueueCap: 2}},
		{"qcap8", fabric.Options{QueueCap: 8}},
		{"tr0", fabric.Options{TR: -1}},
		{"shards1", fabric.Options{Shards: 1}},
		{"shards3", fabric.Options{Shards: 3}},
	}
}

func statsLine(kind plan.Kind, variant string, res *fabric.Result) string {
	s := res.Stats
	return fmt.Sprintf("%s %s cycles=%d hops=%d ramp=%d maxrecv=%d maxq=%d noops=%d steps=%d",
		kind, variant, res.Cycles, s.Hops, s.RampMoves, s.MaxReceived, s.MaxQueueLen, s.Noops, s.Steps)
}

// statsSpec compiles the program of a stats shape. A ReduceScatter is built
// on the ring and an AllGather as the gather-flood, the schedules their
// numbers were taken of, wherever Auto would send them; their streamed
// schedules would not even run under the shallow queues of the variants.
func statsSpec(t testing.TB, req plan.Request) *fabric.Spec {
	t.Helper()
	switch req.Kind {
	case plan.ReduceScatter:
		s := fabric.NewSpec(req.P, 1)
		if err := core.BuildReduceScatterInto(s, core.Ring, req.P, req.B, core.Params(req.Opt), req.Op); err != nil {
			t.Fatal(err)
		}
		return s
	case plan.AllGather:
		s := fabric.NewSpec(req.P, 1)
		if err := core.BuildAllGatherInto(s, core.GatherFlood, req.P, req.B); err != nil {
			t.Fatal(err)
		}
		return s
	}
	pl, err := plan.Compile(req)
	if err != nil {
		t.Fatalf("%s: %v", req.Kind, err)
	}
	return stampedSpec(t, pl)
}

// stampedSpec copies the plan's program into a spec of its own. Inputs stay
// unbound: every counter pinned here depends on the program alone.
func stampedSpec(t testing.TB, pl *plan.Plan) *fabric.Spec {
	t.Helper()
	s := fabric.NewSpec(pl.Spec.Width, pl.Spec.Height)
	if err := pl.Stamp(s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEngineStatsGolden pins what the cycle loop computes, to the last
// counter: Cycles and the full Stats of every collective kind under every
// variant must equal testdata/stats.golden, which was generated by the
// engine as it stood before the program image went dense. A fresh fabric,
// a Reset with the spec it was built from and a Reset with a twin spec
// object must all agree with it. Run with -update only after a deliberate
// change to engine semantics.
func TestEngineStatsGolden(t *testing.T) {
	path := filepath.Join("testdata", "stats.golden")
	var lines []string
	for _, req := range statsShapes() {
		spec, twin := statsSpec(t, req), statsSpec(t, req)
		for _, v := range statsVariants() {
			f, err := fabric.New(spec, v.opt)
			if err != nil {
				t.Fatalf("%s %s: %v", req.Kind, v.name, err)
			}
			res, err := f.Run()
			if err != nil {
				t.Fatalf("%s %s: %v", req.Kind, v.name, err)
			}
			line := statsLine(req.Kind, v.name, res)
			for _, again := range []*fabric.Spec{spec, twin} {
				if err := f.Reset(again); err != nil {
					t.Fatalf("%s %s: reset: %v", req.Kind, v.name, err)
				}
				res, err := f.Run()
				if err != nil {
					t.Fatalf("%s %s: rerun: %v", req.Kind, v.name, err)
				}
				if got := statsLine(req.Kind, v.name, res); got != line {
					t.Errorf("reset replay diverged from a fresh fabric:\n got %s\nwant %s", got, line)
				}
			}
			lines = append(lines, line)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateStats {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/fabric -run TestEngineStatsGolden -update` to generate)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("stats.golden has %d lines, this build produced %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("engine stats moved:\n got %s\nwant %s", lines[i], wantLines[i])
		}
	}
}

// TestAgedRingRunsAlike: the engine sweeps its ring every ageRingStride
// cycles (2^28) so that a wavelet's 31-bit ready cycle never falls behind
// the clock by 2^30. No golden program runs that long, so here the sweep
// runs every 4 cycles instead, and every program under every variant must
// compute what it does unswept: the same stats line and the same
// accumulators.
func TestAgedRingRunsAlike(t *testing.T) {
	run := func(spec *fabric.Spec, opt fabric.Options) *fabric.Result {
		f, err := fabric.New(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, req := range statsShapes() {
		spec := statsSpec(t, req)
		for _, v := range statsVariants() {
			want := run(spec, v.opt)
			restore := fabric.SetAgeRingStride(4)
			got := run(spec, v.opt)
			restore()
			if g, w := statsLine(req.Kind, v.name, got), statsLine(req.Kind, v.name, want); g != w {
				t.Errorf("swept every 4 cycles:\n got %s\nwant %s", g, w)
			}
			if !maps.EqualFunc(got.Acc, want.Acc, slices.Equal[[]float32]) {
				t.Errorf("%s %s: accumulators differ when swept every 4 cycles", req.Kind, v.name)
			}
		}
	}
}

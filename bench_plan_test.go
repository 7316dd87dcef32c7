package wse

// Benchmarks of the compiled-plan subsystem: what a collective costs when
// every call re-compiles (the one-shot API) versus replaying a cached
// plan (the Session API), and the plan-acquisition cost in isolation
// (full compile versus cache lookup). The headline numbers are written to
// BENCH_plan.json as a trajectory point.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
)

const (
	planBenchP = 512
	planBenchB = 16
)

func planBenchReq() plan.Request {
	return plan.Request{
		Kind: plan.Reduce1D,
		Alg:  core.Auto,
		P:    planBenchP,
		B:    planBenchB,
		Op:   fabric.OpSum,
	}
}

// BenchmarkPlanColdVsReplay measures the four corners of the plan
// subsystem on a model-driven (Auto) 1D Reduce: end-to-end one-shot
// (compile every call) vs Session replay (cached plan), and plan
// acquisition alone, compile vs cache hit. It writes BENCH_plan.json.
func BenchmarkPlanColdVsReplay(b *testing.B) {
	vectors := constVectors(planBenchP, planBenchB)
	point := map[string]any{
		"bench": "plan-cold-vs-replay",
		"shape": map[string]any{
			"kind": "reduce1d", "alg": "auto",
			"p": planBenchP, "b": planBenchB,
		},
	}
	benchHostMeta(point)

	var coldNs, replayNs float64
	b.Run("cold-compile-and-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Reduce(vectors, Auto, Sum, Options{}); err != nil {
				b.Fatal(err)
			}
		}
		coldNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	sess := NewSession(SessionConfig{})
	if _, err := sess.Reduce(vectors, Auto, Sum); err != nil {
		b.Fatal(err)
	}
	b.Run("cached-replay-and-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sess.Reduce(vectors, Auto, Sum); err != nil {
				b.Fatal(err)
			}
		}
		replayNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	var compileNs, lookupNs float64
	b.Run("compile-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Compile(planBenchReq()); err != nil {
				b.Fatal(err)
			}
		}
		compileNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	cache := plan.NewCache(8)
	if _, err := cache.Get(planBenchReq()); err != nil {
		b.Fatal(err)
	}
	b.Run("cache-lookup-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cache.Get(planBenchReq()); err != nil {
				b.Fatal(err)
			}
		}
		lookupNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	if replayNs > 0 && lookupNs > 0 {
		point["cold_ns_per_op"] = coldNs
		point["replay_ns_per_op"] = replayNs
		point["end_to_end_speedup"] = coldNs / replayNs
		point["compile_ns_per_op"] = compileNs
		point["lookup_ns_per_op"] = lookupNs
		// The headline: what a plan costs cold (full model-driven
		// compile) vs on a cache hit. End-to-end gains are bounded by
		// the cycle-level simulation, which both paths must pay.
		point["speedup"] = compileNs / lookupNs
		b.ReportMetric(coldNs/replayNs, "end-to-end-x")
		b.ReportMetric(compileNs/lookupNs, "acquisition-x")
		buf, err := json.MarshalIndent(point, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_plan.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("BENCH_plan.json not written: %v", err)
		}
	}
}

// replayMode is one execution strategy of the replay-path benchmark.
type replayMode struct {
	name   string
	shards int
	run    func(p *plan.Plan, inputs [][]float32) error
}

func replayModes() []replayMode {
	// At least 4 bands so single-core hosts still exercise the sharded
	// code path (showing its overhead parity; wall-clock wins need cores).
	shards := runtime.GOMAXPROCS(0)
	if shards < 4 {
		shards = 4
	}
	if shards > 8 {
		shards = 8
	}
	return []replayMode{
		{"serial-fresh", 0, func(p *plan.Plan, in [][]float32) error { _, err := p.ExecuteUnpooled(in); return err }},
		{"serial-pooled", 0, func(p *plan.Plan, in [][]float32) error { _, err := p.Execute(in); return err }},
		{"sharded-pooled", shards, func(p *plan.Plan, in [][]float32) error { _, err := p.Execute(in); return err }},
	}
}

// BenchmarkFabricReplayModes measures what one cache-hit replay costs
// under the three engine execution modes — fresh fabric per run (PR 1's
// replay path), pooled reset-able fabric, and pooled + sharded — on the
// tracked 1D shape and a 2D shape. It writes the ns/op and allocs/op of
// every (shape, mode) pair to BENCH_fabric.json so the replay-path
// trajectory is comparable across PRs. Sharding is expected to lose on
// the 1D shape (its per-cycle wavefront is a handful of PEs, below the
// barrier cost) and pay on wide 2D wavefronts. Since plans replay from a
// tape after their second execution, the two pooled modes time the engine
// only at -benchtime 1x (the recording run); at higher counts they time the
// tape walk, which is the same for both. The engine modes proper are
// measured by the repository's benchmark (bench/: fabric.serial_ns_per_step,
// fabric.sharded_ns_per_step).
func BenchmarkFabricReplayModes(b *testing.B) {
	shapes := []struct {
		name string
		req  plan.Request
	}{
		{"reduce1d-p512-b16", planBenchReq()},
		{"reduce2d-64x64-b64", plan.Request{
			Kind: plan.Reduce2D, Alg2D: core.Auto2D,
			Width: 64, Height: 64, B: 64, Op: fabric.OpSum,
		}},
	}
	point := map[string]any{"bench": "fabric-replay-modes"}
	// Sharded wall-clock wins need cores: the host stamp keeps a parity
	// result on a single-core box from being misread as "sharding is free
	// but useless".
	benchHostMeta(point)
	for _, shape := range shapes {
		for _, mode := range replayModes() {
			req := shape.req
			req.Opt.Shards = mode.shards
			pl, err := plan.Compile(req)
			if err != nil {
				b.Fatal(err)
			}
			inputs := replayInputs(req)
			if err := mode.run(pl, inputs); err != nil { // warm the pool
				b.Fatal(err)
			}
			b.Run(shape.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := mode.run(pl, inputs); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				point[shape.name+"/"+mode.name+"/ns_per_op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				point[shape.name+"/"+mode.name+"/allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(b.N)
			})
		}
	}
	buf, err := json.MarshalIndent(point, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_fabric.json", append(buf, '\n'), 0o644); err != nil {
		b.Logf("BENCH_fabric.json not written: %v", err)
	}
}

// replayInputs builds all-ones inputs of the right arity for a request.
func replayInputs(req plan.Request) [][]float32 {
	n := req.P
	if req.Kind == plan.Reduce2D || req.Kind == plan.AllReduce2D {
		n = req.Width * req.Height
	}
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, req.B)
		for j := range out[i] {
			out[i][j] = 1
		}
	}
	return out
}

// TestPooledReplayAllocGuard is the allocs/op regression guard run by CI,
// over the two ways a cache-hit replay runs. A plan that stays on the engine
// (here: one carrying a tracer, saturated so that it records nothing) must
// not construct a fabric per replay. Since the program image went dense,
// fabric.New is a fixed few dozen allocations rather than thousands, so
// construction no longer dwarfs a replay; it still costs several times what
// a pooled replay does (input binding and result assembly only), and the
// guard sits halfway between the two. It is relative so it tracks the shape
// rather than a brittle absolute count. A plan replaying from its tape
// allocates its result and nothing else — no per-replay Spec, no bound
// headers — so it must not allocate more than the pooled engine replay.
func TestPooledReplayAllocGuard(t *testing.T) {
	inputs := replayInputs(planBenchReq())
	traced := planBenchReq()
	traced.Opt.Tracer = &fabric.Tracer{Cap: 1}
	engine, err := plan.Compile(traced)
	if err != nil {
		t.Fatal(err)
	}
	cache := plan.NewCache(0) // counts what the plan it holds does with its tape
	taped, err := cache.Get(planBenchReq())
	if err != nil {
		t.Fatal(err)
	}
	for warm := 0; warm < 2; warm++ { // fill the engine plan's pool, record the other's tape
		for _, pl := range []*plan.Plan{engine, taped} {
			if _, err := pl.Execute(inputs); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := func(pl *plan.Plan, gc bool, run func(*plan.Plan) error) float64 {
		return testing.AllocsPerRun(20, func() {
			if gc {
				runtime.GC()
				runtime.GC()
			}
			if err := run(pl); err != nil {
				t.Fatal(err)
			}
		})
	}
	execute := func(pl *plan.Plan) error { _, err := pl.Execute(inputs); return err }
	fresh := allocs(engine, false, func(pl *plan.Plan) error { _, err := pl.ExecuteUnpooled(inputs); return err })
	pooled := allocs(engine, false, execute)
	if pooled > fresh/2 {
		t.Fatalf("pooled replay allocates %.0f allocs/op vs %.0f fresh — the pool is not eliding fabric construction", pooled, fresh)
	}
	// The plan's free list must survive garbage collection (two cycles
	// empty a sync.Pool, victim cache included): a replay under allocation
	// pressure is still a pooled replay.
	afterGC := allocs(engine, true, execute)
	if afterGC > fresh/2 {
		t.Fatalf("replay after GC allocates %.0f allocs/op vs %.0f fresh, %.0f pooled — a collection emptied the instance pool", afterGC, fresh, pooled)
	}
	// The tape's wave buffer is parked on the plan, not in a sync.Pool, so
	// the same holds for a tape replay (the collections themselves allocate
	// a little: like is compared with like).
	for _, c := range []struct {
		gc     bool
		engine float64
	}{{false, pooled}, {true, afterGC}} {
		if tape := allocs(taped, c.gc, execute); tape > c.engine {
			t.Fatalf("tape replay (after GC: %v) allocates %.0f allocs/op vs %.0f for a pooled engine replay", c.gc, tape, c.engine)
		}
	}
	if st := cache.Stats(); st.TapeRecords != 1 || st.TapeReplays < 40 {
		t.Fatalf("the taped plan recorded %d tapes and replayed %d times: the guard did not measure tape replays", st.TapeRecords, st.TapeReplays)
	}
}

// BenchmarkSessionConcurrentReplay drives one cached plan from many
// goroutines to measure worker-pool throughput in collectives/second.
func BenchmarkSessionConcurrentReplay(b *testing.B) {
	vectors := constVectors(planBenchP, planBenchB)
	sess := NewSession(SessionConfig{})
	if _, err := sess.Reduce(vectors, Auto, Sum); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sess.Reduce(vectors, Auto, Sum); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "collectives/s")
}

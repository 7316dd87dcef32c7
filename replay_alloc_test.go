package wse

// The allocs/op guard of the replay path (run by name in CI), with the
// tracked shape the remaining root benchmarks share.

import (
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

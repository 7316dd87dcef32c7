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

// TestReplayAllocGuard is the allocs/op regression guard run by CI: a
// cache-hit replay walks the plan's tape, so it allocates its result and
// nothing else — no per-run Spec, no bound headers, no fabric. An engine run
// (ExecuteUnpooled) builds all three; since the program image went dense
// fabric.New is a fixed few dozen allocations rather than thousands, so it no
// longer dwarfs a replay but still costs several times one, and the guard sits
// halfway between the two. It is relative so it tracks the shape rather than a
// brittle absolute count.
func TestReplayAllocGuard(t *testing.T) {
	inputs := replayInputs(planBenchReq())
	cache := plan.NewCache(0) // counts what the plan it holds does with its tape
	pl, err := cache.Get(planBenchReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Execute(inputs); err != nil { // the recording run
		t.Fatal(err)
	}
	allocs := func(gc bool, run func() error) float64 {
		return testing.AllocsPerRun(20, func() {
			if gc {
				runtime.GC()
				runtime.GC()
			}
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	fresh := allocs(false, func() error { _, err := pl.ExecuteUnpooled(inputs); return err })
	// The tape's wave buffer is parked on the plan, not in a sync.Pool (two
	// collections empty one, victim cache included), so a replay under
	// allocation pressure is still a bare tape walk.
	for _, gc := range []bool{false, true} {
		replay := allocs(gc, func() error { _, err := pl.Execute(inputs); return err })
		if replay > fresh/2 {
			t.Fatalf("tape replay (after GC: %v) allocates %.0f allocs/op vs %.0f for an engine run", gc, replay, fresh)
		}
	}
	if st := cache.Stats(); st.TapeRecords != 1 || st.TapeReplays < 40 {
		t.Fatalf("the plan recorded %d tapes and replayed %d times: the guard did not measure tape replays", st.TapeRecords, st.TapeReplays)
	}
}

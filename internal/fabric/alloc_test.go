package fabric_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/plan"
)

// allocSlack is how many allocations the P=512 program may cost beyond the
// P=64 one: arenas sized by extrapolation may take one more chunk each.
const allocSlack = 8

// reduceSpec compiles a P-PE reduce1d and stamps it into its own spec.
func reduceSpec(t *testing.T, p int) *fabric.Spec {
	t.Helper()
	pl, err := plan.Compile(plan.Request{Kind: plan.Reduce1D, Alg: core.TwoPhase, P: p, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	return stampedSpec(t, pl)
}

// TestNewAllocsIndependentOfPECount: building a fabric lays its state out
// in a fixed set of flat arrays, so the allocation count must not grow
// with the program (the bytes do; the count does not).
func TestNewAllocsIndependentOfPECount(t *testing.T) {
	allocs := func(p int) float64 {
		s := reduceSpec(t, p)
		return testing.AllocsPerRun(10, func() {
			if _, err := fabric.New(s, fabric.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(512)
	t.Logf("fabric.New: %.0f allocs at P=64, %.0f at P=512", small, large)
	if large > small+allocSlack {
		t.Fatalf("fabric.New allocates %.0f times at P=512 vs %.0f at P=64 — something is allocated per PE again", large, small)
	}
}

// TestUnmarshalAllocsIndependentOfPECount: the decoder fills arenas, not
// one map and three slices per PE.
func TestUnmarshalAllocsIndependentOfPECount(t *testing.T) {
	allocs := func(p int) float64 {
		data, err := reduceSpec(t, p).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			var s fabric.Spec
			if err := s.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(512)
	t.Logf("Spec.UnmarshalBinary: %.0f allocs at P=64, %.0f at P=512", small, large)
	if large > small+allocSlack {
		t.Fatalf("Spec.UnmarshalBinary allocates %.0f times at P=512 vs %.0f at P=64 — something is allocated per PE again", large, small)
	}
}

// TestRunAllocsIndependentOfCycles: a run sizes its per-cycle lists before
// its first cycle, so how often it allocates does not grow with how long it
// runs: a chain of 64 PEs allocates as often at B = 1,024 as at B = 16.
func TestRunAllocsIndependentOfCycles(t *testing.T) {
	allocs := func(b int) float64 {
		pl, err := plan.Compile(plan.Request{Kind: plan.Reduce1D, Alg: core.Chain, P: 64, B: b})
		if err != nil {
			t.Fatal(err)
		}
		s := stampedSpec(t, pl)
		s.Each(func(c mesh.Coord, _ *fabric.Program) { s.PE(c).Init = make([]float32, b) })
		return testing.AllocsPerRun(5, func() {
			f, err := fabric.New(s, pl.Opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(16), allocs(1024)
	t.Logf("New and Run: %.0f allocs at B=16, %.0f at B=1024", short, long)
	if long != short {
		t.Fatalf("a chain allocates %.0f times at B=1024 and %.0f at B=16: the run grows something as it goes", long, short)
	}
}

// statePrograms are the programs TestNewBytesPerPE weighs. was is the
// state, in bytes per PE, that fabric.New allocated for each before the
// per-PE state was cut down: a 280-byte proc (96 of them a per-color inbox
// table), a 176-byte colorState with five queue headers inline, a 104-byte
// router, a 20-byte neighbour table and a 16-byte ring entry. max is the
// ceiling it is held to now; both exclude the accumulator arena.
var statePrograms = []struct {
	req      plan.Request
	was, max float64
}{
	{plan.Request{Kind: plan.Reduce1D, Alg: core.Auto, P: 512, B: 256}, 1119, 550},
	{plan.Request{Kind: plan.AllReduce1D, Alg: core.Auto, P: 256, B: 512}, 1460, 730},
	{plan.Request{Kind: plan.Broadcast1D, P: 512, B: 512}, 795, 390},
	{plan.Request{Kind: plan.AllReduce1D, Alg: core.Ring, P: 256, B: 256}, 1332, 630},
	{plan.Request{Kind: plan.Reduce2D, Alg2D: core.Auto2D, Width: 32, Height: 32, B: 64}, 1095, 550},
	{plan.Request{Kind: plan.AllReduce2D, Alg2D: core.Auto2D, Width: 32, Height: 32, B: 4}, 1399, 700},
	{plan.Request{Kind: plan.Reduce2D, Alg2D: core.Auto2D, Width: 128, Height: 128, B: 4}, 1085, 540},
}

// TestNewBytesPerPE ratchets the engine state fabric.New lays out per PE:
// the bytes it allocates beyond the accumulator arena (4 bytes for each of
// the max(AccNeed, len(Init)) elements a PE holds), over the programmed PEs.
// It is what decides how large a grid fits in memory: at 512×512 every
// 100 bytes here are 26 MB.
func TestNewBytesPerPE(t *testing.T) {
	for _, sp := range statePrograms {
		pl, err := plan.Compile(sp.req)
		if err != nil {
			t.Fatal(err)
		}
		s := stampedSpec(t, pl)
		arena := 0
		s.Each(func(_ mesh.Coord, p *fabric.Program) { arena += 4 * p.AccNeed() }) // nothing bound
		// The least of three passes: anything else the process allocates
		// meanwhile only adds.
		const runs = 4
		grew := uint64(math.MaxUint64)
		for range 3 {
			grew = min(grew, allocBytes(func() {
				for range runs {
					if _, err := fabric.New(s, pl.Opt); err != nil {
						t.Fatal(err)
					}
				}
			}))
		}
		perPE := (float64(grew)/runs - float64(arena)) / float64(s.Len())
		name := fmt.Sprintf("%s %s%s P=%d B=%d", sp.req.Kind, sp.req.Alg, sp.req.Alg2D, s.Len(), sp.req.B)
		t.Logf("%s: %.0f state bytes per PE (was %.0f, ceiling %.0f)", name, perPE, sp.was, sp.max)
		if perPE > sp.max {
			t.Errorf("%s: fabric.New lays out %.0f state bytes per PE, over the ceiling of %.0f", name, perPE, sp.max)
		}
	}
}

// TestResultOutlivesReset: Run hands its accumulator arena to the Result, so
// a Result must keep its bits when the fabric is Reset with other inputs and
// run again, and share no storage with the next run's Result — whether the
// Reset rebinds Init in the spec the fabric holds or brings a twin spec.
func TestResultOutlivesReset(t *testing.T) {
	pl, err := plan.Compile(plan.Request{Kind: plan.AllReduce1D, Alg: core.Tree, P: 9, B: 12})
	if err != nil {
		t.Fatal(err)
	}
	bind := func(s *fabric.Spec, scale float32) {
		s.Each(func(c mesh.Coord, _ *fabric.Program) {
			pe := s.PE(c)
			pe.Init = make([]float32, pl.B)
			for i := range pe.Init {
				pe.Init[i] = scale * float32(c.X*pl.B+i+1)
			}
		})
	}
	for _, shards := range []int{1, 2} {
		opt := pl.Opt
		opt.Shards = shards
		s, twin := stampedSpec(t, pl), stampedSpec(t, pl)
		bind(s, 1)
		f, err := fabric.New(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		first, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		kept := make(map[mesh.Coord][]float32, len(first.Acc))
		for c, v := range first.Acc {
			kept[c] = slices.Clone(v)
		}
		bind(s, -2)
		bind(twin, 3)
		for _, next := range []*fabric.Spec{s, twin} {
			if err := f.Reset(next); err != nil {
				t.Fatal(err)
			}
			res, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			for c, v := range res.Acc {
				if slices.Equal(v, kept[c]) {
					t.Fatalf("shards=%d: PE %v computed the same vector on other inputs", shards, c)
				}
				for i := range v {
					v[i] = float32(math.NaN()) // a Result that shares storage with this one sees it
				}
			}
			for c, v := range first.Acc {
				if !slices.Equal(v, kept[c]) {
					t.Fatalf("shards=%d: PE %v's first result changed to %v after a Reset and run, want %v", shards, c, v, kept[c])
				}
			}
		}
	}
}

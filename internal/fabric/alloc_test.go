package fabric_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
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

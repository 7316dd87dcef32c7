package comm

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

// runAllGather runs an AllGather program build compiles for p PEs and b
// elements, with chunk j of 1, 2, …, b placed on PE j, checks that every PE
// ends with the whole vector, and returns the cycles.
func runAllGather(build func(*fabric.Spec) error, p, b int, opt fabric.Options) (int64, error) {
	spec := fabric.NewSpec(p, 1)
	if err := build(spec); err != nil {
		return 0, err
	}
	path := mesh.Row(0, 0, p)
	off, sz := Chunks(p, b)
	for j, c := range path {
		init := make([]float32, b)
		for i := off[j]; i < off[j]+sz[j]; i++ {
			init[i] = float32(i + 1)
		}
		spec.PE(c).Init = init
	}
	f, err := fabric.New(spec, opt)
	if err != nil {
		return 0, err
	}
	res, err := f.Run()
	if err != nil {
		return 0, err
	}
	for _, c := range path {
		for i, v := range res.Acc[c] {
			if v != float32(i+1) {
				return 0, fmt.Errorf("PE %v holds %v at %d, want %d", c, v, i, i+1)
			}
		}
	}
	return res.Cycles, nil
}

// TestGatherFloodRunsAtItsEstimate runs the gather-flood on every row of 2 to
// 24 PEs over B from P to 4P+5, balanced chunks or not, at T_R 1 to 3, and
// holds it to model.GatherFlood to the cycle.
func TestGatherFloodRunsAtItsEstimate(t *testing.T) {
	for tr := 1; tr <= 3; tr++ {
		pr := model.Params{TR: tr, Ctl: 1}
		for p := 2; p <= 24; p++ {
			for b := p; b <= 4*p+5; b++ {
				build := func(s *fabric.Spec) error { return BuildGatherFlood(s, RowLane(p, b)) }
				cycles, err := runAllGather(build, p, b, fabric.Options{TR: tr})
				if err != nil {
					t.Fatalf("T_R=%d p=%d b=%d: %v", tr, p, b, err)
				}
				if want := pr.GatherFlood(p, b); float64(cycles) != want {
					t.Errorf("T_R=%d p=%d b=%d: %d cycles, estimate %v", tr, p, b, cycles, want)
				}
			}
		}
	}
}

// TestGatherFloodConfigs holds the routing to its shape: one color, and at
// most three counted configurations on it per router — the turns from the
// start's side, the PE's own, the turns from the end's side.
func TestGatherFloodConfigs(t *testing.T) {
	for _, p := range []int{2, 3, 7} {
		spec := fabric.NewSpec(p, 1)
		if err := BuildGatherFlood(spec, RowLane(p, 3*p)); err != nil {
			t.Fatal(err)
		}
		for u, c := range mesh.Row(0, 0, p) {
			pe := spec.PE(c)
			if len(pe.Configs) != 1 || pe.Configs[0].Color != 0 {
				t.Fatalf("p=%d: PE %d routes %d colors", p, u, len(pe.Configs))
			}
			cfgs, turns := pe.Configs[0].Cfgs, 0
			for _, cfg := range cfgs {
				turns += cfg.Times
			}
			if len(cfgs) > 3 || turns != p {
				t.Errorf("p=%d: PE %d has %d configurations passing %d turns, want at most 3 passing %d", p, u, len(cfgs), turns, p)
			}
		}
	}
}

// TestMidRootAllGatherRunsAtItsEstimate runs the AllGather through the middle
// PE on every row of 2 to 24 PEs with balanced chunks, B = P to 8P, and holds
// it to model.MidRootAllGather to the cycle.
func TestMidRootAllGatherRunsAtItsEstimate(t *testing.T) {
	pr := model.Params{TR: fabric.DefaultTR, Ctl: 1}
	for p := 2; p <= 24; p++ {
		for b := p; b <= 8*p; b += p {
			cycles, err := runAllGather(func(s *fabric.Spec) error { return BuildAllGatherMidRoot(s, RowLane(p, b)) }, p, b, fabric.Options{})
			if err != nil {
				t.Fatalf("p=%d b=%d: %v", p, b, err)
			}
			if want := pr.MidRootAllGather(p, b); float64(cycles) != want {
				t.Errorf("p=%d b=%d: %d cycles, estimate %v", p, b, cycles, want)
			}
		}
	}
}

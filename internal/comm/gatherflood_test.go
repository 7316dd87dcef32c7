package comm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

// runAllGather runs an AllGather program build compiles for p PEs and b
// elements, with chunk j of 1, 2, …, b placed on PE j, checks that every PE
// ends with the whole vector, and returns the cycles.
func runAllGather(build func(*fabric.Spec) error, p, b int, opt fabric.Options) (int64, error) {
	return runAllGatherFrom(build, p, b, nil, opt)
}

// runAllGatherFrom is runAllGather with PE j busy for delay[j] cycles
// (OpBusyWrite) before its first op of the AllGather; nil delays none.
func runAllGatherFrom(build func(*fabric.Spec) error, p, b int, delay []int, opt fabric.Options) (int64, error) {
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
		pe := spec.PE(c)
		pe.Init = init
		if delay != nil && delay[j] > 0 {
			spec.SetOps(c, append([]fabric.Op{{Kind: fabric.OpBusyWrite, N: delay[j]}}, spec.Program(c).Ops...))
		}
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
			prog := spec.Program(c)
			if len(prog.Configs) != 1 || prog.Configs[0].Color != 0 {
				t.Fatalf("p=%d: PE %d routes %d colors", p, u, len(prog.Configs))
			}
			cfgs, turns := prog.Configs[0].Cfgs, 0
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

// TestStarStreamGate holds the streamed middle-root AllGather to its gate on
// every row of 2 to 12 PEs at T_R 1 to 3 and queue depths 1, 2, 3, 4 and 8.
// Where the ramp's queue outlasts its latency, every B whose longest chunk
// and control fill two queues exactly, ⌈B/P⌉ + Ctl = 2·QueueCap, balanced
// or not, runs at model.Params.StarStream to the cycle, and one wavelet
// more a chunk is +Inf and, from six PEs on (a sender three hops out), a
// deadlock. Where it does not, the form is +Inf.
func TestStarStreamGate(t *testing.T) {
	for tr := 1; tr <= 3; tr++ {
		for _, qcap := range []int{1, 2, 3, 4, 8} {
			pr := model.Params{TR: tr, Ctl: 1, QueueCap: qcap}
			opt := fabric.Options{TR: tr, QueueCap: qcap}
			for p := 2; p <= 12; p++ {
				build := func(b int) func(*fabric.Spec) error {
					return func(s *fabric.Spec) error { return BuildAllGatherStreamed(s, RowLane(p, b)) }
				}
				full := p * (2*qcap - pr.Ctl) // the balanced B at the gate
				if qcap < tr+1 {
					if want := pr.StarStream(p, p, nil); !math.IsInf(want, 1) {
						t.Errorf("T_R=%d qcap=%d p=%d: priced %v under queues shorter than the ramp", tr, qcap, p, want)
					}
					continue
				}
				for b := full - p + 1; b <= full; b++ {
					cycles, err := runAllGather(build(b), p, b, opt)
					if err != nil {
						t.Fatalf("T_R=%d qcap=%d p=%d b=%d: %v", tr, qcap, p, b, err)
					}
					if want := pr.StarStream(p, b, nil); float64(cycles) != want {
						t.Errorf("T_R=%d qcap=%d p=%d b=%d: %d cycles, estimate %v", tr, qcap, p, b, cycles, want)
					}
				}
				past := full + p
				if want := pr.StarStream(p, past, nil); !math.IsInf(want, 1) {
					t.Errorf("T_R=%d qcap=%d p=%d b=%d: priced %v past the gate", tr, qcap, p, past, want)
				}
				if _, err := runAllGather(build(past), p, past, opt); p >= 6 && (err == nil || !strings.Contains(err.Error(), "deadlock")) {
					t.Errorf("T_R=%d qcap=%d p=%d b=%d: past the gate, got %v, want a deadlock", tr, qcap, p, past, err)
				}
			}
		}
	}
}

// TestStarStreamFromStaggeredStarts holds the streamed middle-root AllGather
// to model.Params.StarStream from per-PE starts: PE j is busy for d_j cycles
// (OpBusyWrite) before the AllGather, and the form is given those releases.
// On every row of 2 to 17 PEs and on rows of 24, 32 and 64 at T_R 1 to 3,
// queue depths 2, 4, 8 and 16 (those the gate admits) and task activations
// 0 and 3, at balanced and unbalanced B inside the gate, it tries every PE
// at 0, every PE at one random d, random d_j from 0 to 3·(⌈B/P⌉ + Ctl), and
// starts spread as a split AllReduce's rows spread them: PE j released when
// the streamed ring reduce-scatter of the same row and vector is through on
// it (model.RingStreamDone, where PE 0 alone pays the wrap-around), then a
// random d_j more. Every run leaves the whole vector on every PE, deadlocks
// nowhere and takes the form's cycles to the cycle. -short walks every third
// row of up to 17 PEs and no wider one.
func TestStarStreamFromStaggeredStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	stride := 1
	if testing.Short() {
		stride = 3
	}
	staggered := 0
	for tr := 1; tr <= 3; tr++ {
		for _, qcap := range []int{2, 4, 8, 16} {
			if qcap < tr+1 {
				continue
			}
			for _, act := range []int{0, 3} {
				pr := model.Params{TR: tr, Ctl: 1, QueueCap: qcap, Activation: act}
				opt := fabric.Options{TR: tr, QueueCap: qcap, TaskActivation: act}
				var ps []int
				for p := 2 + tr%stride; p <= 17; p += stride {
					ps = append(ps, p)
				}
				if !testing.Short() {
					ps = append(ps, 24, 32, 64)
				}
				for _, p := range ps {
					top := 2*qcap - pr.Ctl // the longest chunk the gate admits
					for _, b := range []int{p, p * top, p * (1 + rng.Intn(top)), p*(1+rng.Intn(top-1)) + 1 + rng.Intn(p-1)} {
						w := (b+p-1)/p + pr.Ctl
						build := func(s *fabric.Spec) error { return BuildAllGatherStreamed(s, RowLane(p, b)) }
						same := rng.Intn(3*w + 1)
						finish := pr.RingStreamDone(p, b)
						for try := 0; try < 6; try++ {
							if try == 5 && math.IsInf(finish[0], 1) {
								continue // the ring does not stream here
							}
							delay := make([]int, p)
							for j := range delay {
								switch try {
								case 0:
								case 1:
									delay[j] = same
								case 5:
									delay[j] = int(finish[j]) + rng.Intn(3*w+1)
								default:
									delay[j] = rng.Intn(3*w + 1)
								}
							}
							release := make([]float64, p)
							for j, d := range delay {
								release[j] = float64(d)
							}
							label := fmt.Sprintf("T_R=%d qcap=%d act=%d p=%d b=%d delays %v", tr, qcap, act, p, b, delay)
							want := pr.StarStream(p, b, release)
							if math.IsInf(want, 1) {
								t.Fatalf("%s: the gate refused B = %d", label, b)
							}
							cycles, err := runAllGatherFrom(build, p, b, delay, opt)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if float64(cycles) != want {
								t.Errorf("%s: %d cycles, estimate %v", label, cycles, want)
							}
							if try > 1 && slices.Max(delay) > slices.Min(delay) {
								staggered++
							}
						}
					}
				}
			}
		}
	}
	if staggered == 0 {
		t.Error("no run started staggered")
	}
}

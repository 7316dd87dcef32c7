package comm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

func runRing(t *testing.T, mapping RingMapping, p, b int) *fabric.Result {
	t.Helper()
	spec := fabric.NewSpec(p, 1)
	path := mesh.Row(0, 0, p)
	if err := BuildRingAllReduce(spec, Lane{Path: path, N: b}, mapping, fabric.OpSum); err != nil {
		t.Fatalf("build ring %v p=%d b=%d: %v", mapping, p, b, err)
	}
	vecs, _ := inputs(p, b, int64(3*p+b))
	for i, c := range path {
		spec.PE(c).Init = vecs[i]
	}
	f, err := fabric.New(spec, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run ring %v p=%d b=%d: %v", mapping, p, b, err)
	}
	return res
}

func TestRingAllReduceCorrectness(t *testing.T) {
	for _, mapping := range []RingMapping{RingSimple, RingDistancePreserving} {
		for _, p := range []int{2, 4, 8, 16, 32} {
			for _, b := range []int{p, 2*p + 3, 16 * p} {
				t.Run(fmt.Sprintf("%v/p%d/b%d", mapping, p, b), func(t *testing.T) {
					path := mesh.Row(0, 0, p)
					vecs, want := inputs(p, b, int64(3*p+b))
					res := runRing(t, mapping, p, b)
					_ = vecs
					for _, c := range path {
						if err := almostEqual(res.Acc[c], want); err != nil {
							t.Fatalf("PE %v: %v", c, err)
						}
					}
				})
			}
		}
	}
}

// TestChunkedFormsAreExact holds every chunked program — the ring's two
// phases and both together, Scatter, Gather and the AllGather through the
// middle PE, whole and streamed — on every row of 2 to 12 PEs with B from P
// to 3P+2, balanced chunks or not, at T_R 1 to 3, to its model form to the
// cycle. Under the default queue depth every chunk of these is inside the
// streamed AllGather's gate. Where P does
// not divide B the forms count whole chunks: the longer ones pace every ring
// round, and a root's ramp takes every chunk but its own.
func TestChunkedFormsAreExact(t *testing.T) {
	forms := []struct {
		name  string
		build func(s *fabric.Spec, p, b int) error
		price func(pr model.Params, p, b int) float64
	}{
		{"reduce-scatter", func(s *fabric.Spec, p, b int) error {
			return BuildReduceScatter(s, RowLane(p, b), RingSimple, fabric.OpSum)
		}, model.Params.ReduceScatter},
		{"allgather", func(s *fabric.Spec, p, b int) error { return BuildAllGather(s, RowLane(p, b), RingSimple) }, model.Params.AllGather},
		{"ring", func(s *fabric.Spec, p, b int) error {
			return BuildRingAllReduce(s, RowLane(p, b), RingSimple, fabric.OpSum)
		}, model.Params.RingAllReduce},
		{"scatter", func(s *fabric.Spec, p, b int) error { return BuildScatter(s, mesh.Row(0, 0, p), b, 5) }, model.Params.Scatter},
		{"gather", func(s *fabric.Spec, p, b int) error { return BuildGather(s, mesh.Row(0, 0, p), b, 5) }, model.Params.Gather},
		{"allgather-midroot", func(s *fabric.Spec, p, b int) error { return BuildAllGatherMidRoot(s, RowLane(p, b)) }, model.Params.MidRootAllGather},
		{"star-stream", func(s *fabric.Spec, p, b int) error { return BuildAllGatherStreamed(s, RowLane(p, b)) }, func(pr model.Params, p, b int) float64 {
			return pr.StarStream(p, b, nil)
		}},
	}
	for tr := 1; tr <= 3; tr++ {
		pr := model.Params{TR: tr, Ctl: 1, QueueCap: fabric.DefaultQueueCap}
		for p := 2; p <= 12; p++ {
			for b := p; b <= 3*p+2; b++ {
				for _, form := range forms {
					spec := fabric.NewSpec(p, 1)
					if err := form.build(spec, p, b); err != nil {
						t.Fatal(err)
					}
					for _, c := range mesh.Row(0, 0, p) {
						spec.PE(c).Init = make([]float32, b)
					}
					f, err := fabric.New(spec, fabric.Options{TR: tr})
					if err != nil {
						t.Fatal(err)
					}
					res, err := f.Run()
					if err != nil {
						t.Fatalf("%s T_R=%d p=%d b=%d: %v", form.name, tr, p, b, err)
					}
					if want := form.price(pr, p, b); float64(res.Cycles) != want {
						t.Errorf("%s T_R=%d p=%d b=%d: %d cycles, estimate %v", form.name, tr, p, b, res.Cycles, want)
					}
				}
			}
		}
	}
}

// TestRingStreamFormIsExact holds the streamed ring reduce-scatter to
// model.Params.RingStream to the cycle, and every PE to RingStreamDone (the
// cycle after it took its last control, as the run's count is), on every row
// of 2 to 12 PEs with B from P to 4P, at T_R 1 to 3, queue depths 3, 4 and 8
// and task activations 0 and 2, wherever the gate admits it: under the
// default queue depth, from one to nine elements a chunk.
func TestRingStreamFormIsExact(t *testing.T) {
	for tr := 1; tr <= 3; tr++ {
		for _, qcap := range []int{3, 4, 8} {
			for _, act := range []int{0, 2} {
				pr := model.Params{TR: tr, Ctl: 1, QueueCap: qcap, Activation: act}
				for p := 2; p <= 12; p++ {
					for b := p; b <= 4*p; b++ {
						want := pr.RingStreamDone(p, b)
						if math.IsInf(want[0], 1) {
							continue
						}
						spec := fabric.NewSpec(p, 1)
						if err := BuildReduceScatterStreamed(spec, RowLane(p, b), fabric.OpSum); err != nil {
							t.Fatal(err)
						}
						for _, c := range mesh.Row(0, 0, p) {
							spec.PE(c).Init = make([]float32, b)
						}
						tracer := &fabric.Tracer{}
						f, err := fabric.New(spec, fabric.Options{TR: tr, QueueCap: qcap, TaskActivation: act, Tracer: tracer})
						if err != nil {
							t.Fatal(err)
						}
						res, err := f.Run()
						if err != nil {
							t.Fatalf("T_R=%d qcap=%d act=%d p=%d b=%d: %v", tr, qcap, act, p, b, err)
						}
						got := make([]float64, p)
						for _, e := range tracer.Events {
							if e.Kind == fabric.EvConsume {
								got[e.PE.X] = max(got[e.PE.X], float64(e.Cycle+2))
							}
						}
						if float64(res.Cycles) != pr.RingStream(p, b) || !slices.Equal(got, want) {
							t.Errorf("T_R=%d qcap=%d act=%d p=%d b=%d: %d cycles, the PEs done at %v; estimates %v, %v",
								tr, qcap, act, p, b, res.Cycles, got, pr.RingStream(p, b), want)
						}
					}
				}
			}
		}
	}
	if pr := (model.Params{TR: 2, Ctl: 1, QueueCap: 4}); !math.IsInf(pr.RingStream(16, 16*10), 1) || math.IsInf(pr.RingStream(16, 16*9), 1) {
		t.Error("the default gate does not end at nine elements a chunk")
	}
}

func TestRingSimpleOddPECount(t *testing.T) {
	// The simple mapping supports odd rings; distance-preserving does not.
	res := runRing(t, RingSimple, 5, 25)
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	spec := fabric.NewSpec(5, 1)
	if err := BuildRingAllReduce(spec, RowLane(5, 25), RingDistancePreserving, fabric.OpSum); err == nil {
		t.Error("distance-preserving ring accepted odd PE count")
	}
}

func TestRingRejectsTinyVectors(t *testing.T) {
	spec := fabric.NewSpec(8, 1)
	if err := BuildRingAllReduce(spec, RowLane(8, 4), RingSimple, fabric.OpSum); err == nil {
		t.Error("ring accepted B < P")
	}
}

func TestRingMappingsAgreeOnRuntimeScale(t *testing.T) {
	// The paper's model assigns both mappings the same cost (§6.2); the
	// simulated runtimes should be within a small factor of each other.
	for _, p := range []int{8, 32} {
		b := 32 * p
		simple := runRing(t, RingSimple, p, b)
		dp := runRing(t, RingDistancePreserving, p, b)
		lo, hi := simple.Cycles, dp.Cycles
		if lo > hi {
			lo, hi = hi, lo
		}
		if float64(hi) > 1.5*float64(lo) {
			t.Errorf("p=%d b=%d: simple %d vs distance-preserving %d cycles", p, b, simple.Cycles, dp.Cycles)
		}
	}
}

// TestRingModelPredictsWinner validates experimentally the paper's
// central methodological claim (§8.5: "our model is able to very
// accurately predict which of the two performs best"), applied to the one
// algorithm the paper deliberately left unimplemented. The paper modelled
// ring, saw it win only for tiny PE counts with huge vectors (Figure 8's
// bottom-right region) and never at scale (§8.6), and skipped the
// engineering. We build it anyway: at every probed point the simulator
// must crown the same winner as the model — including the points where
// ring genuinely wins.
func TestRingModelPredictsWinner(t *testing.T) {
	pr := model.Default()
	for _, tc := range []struct{ p, b int }{
		{4, 512}, {8, 1024}, {8, 64}, {16, 64}, {32, 2048}, {32, 256}, {64, 1024},
	} {
		ring := runRing(t, RingSimple, tc.p, tc.b)

		spec := fabric.NewSpec(tc.p, 1)
		path := mesh.Row(0, 0, tc.p)
		if err := BuildAllReduce1D(spec, Lane{Path: path, N: tc.b}, Chain(tc.p), fabric.OpSum); err != nil {
			t.Fatal(err)
		}
		vecs, _ := inputs(tc.p, tc.b, 1)
		for i, c := range path {
			spec.PE(c).Init = vecs[i]
		}
		f, err := fabric.New(spec, fabric.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cb, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}

		predRing := pr.RingAllReduce(tc.p, tc.b)
		predCB := pr.AllReduce1D("chain", tc.p, tc.b)
		modelSaysRing := predRing < predCB
		simSaysRing := ring.Cycles < cb.Cycles
		// Allow disagreement only when the two are within a few percent
		// (§8.5: mispredictions cost at most ~114 cycles there).
		close := func(a, b int64) bool {
			d := a - b
			if d < 0 {
				d = -d
			}
			return float64(d) < 0.05*float64(a+b)/2+64
		}
		if modelSaysRing != simSaysRing && !close(ring.Cycles, cb.Cycles) {
			t.Errorf("p=%d b=%d: model picks ring=%v (%.0f vs %.0f) but simulator measured ring=%d chain+bcast=%d",
				tc.p, tc.b, modelSaysRing, predRing, predCB, ring.Cycles, cb.Cycles)
		}
		// The ring prediction itself must be in the right ballpark.
		rel := (float64(ring.Cycles) - predRing) / float64(ring.Cycles)
		if rel < -0.5 || rel > 0.5 {
			t.Errorf("p=%d b=%d: ring measured %d vs predicted %.0f", tc.p, tc.b, ring.Cycles, predRing)
		}
	}
}

func TestRingEnergyMatchesModel(t *testing.T) {
	// Lemma 6.1's energy: 2(P-1) rounds of 2(P-1) links × B/P wavelets.
	p, b := 8, 64
	res := runRing(t, RingSimple, p, b)
	// Simple mapping: per reduce-scatter+allgather round set, each of the
	// P logical edges carries its chunk; edge lengths sum to 2(P-1) hops
	// per lap. 2(P-1) rounds of B/P wavelets (+controls).
	perLap := 2 * (p - 1)
	want := int64(2 * (p - 1) * (b/p + 1) * perLap / p * p / perLap) // loose sanity only
	if res.Stats.Hops < want/2 {
		t.Errorf("ring energy %d hops, implausibly low (sanity %d)", res.Stats.Hops, want)
	}
}

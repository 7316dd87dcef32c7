package wse

import (
	"context"
	"sync"
	"testing"
)

func sessVectors(p, b int) [][]float32 {
	out := make([][]float32, p)
	for i := range out {
		v := make([]float32, b)
		for j := range v {
			v[j] = float32(i+1) * float32(j%5+1)
		}
		out[i] = v
	}
	return out
}

func sameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestSessionMatchesOneShot replays every collective kind through a
// Session and compares bit-for-bit with the one-shot package Run.
func TestSessionMatchesOneShot(t *testing.T) {
	s := NewSession(SessionConfig{})
	vecs := sessVectors(16, 12)
	chunks := make([][]float32, 8)
	{
		off, sz := Chunks(8, 20)
		full := sessVectors(1, 20)[0]
		for j := range chunks {
			chunks[j] = full[off[j] : off[j]+sz[j]]
		}
	}
	grid := sessVectors(4*3, 6)
	rsVecs := sessVectors(10, 16) // the ring needs B >= P for non-empty chunks

	runs := []struct {
		name   string
		shape  Shape
		inputs [][]float32
	}{
		{"reduce", Shape{Kind: KindReduce, Alg: Auto, P: 16, B: 12, Op: Sum}, vecs},
		{"allreduce", Shape{Kind: KindAllReduce, Alg: TwoPhase, P: 16, B: 12, Op: Sum}, vecs},
		{"allreduce-midroot", Shape{Kind: KindAllReduceMidRoot, Alg: Auto, P: 16, B: 12, Op: Sum}, vecs},
		{"broadcast", Shape{Kind: KindBroadcast, P: 16, B: 12}, vecs[2:3]},
		{"reduce2d", Shape{Kind: KindReduce2D, Alg2D: Auto2D, Width: 4, Height: 3, B: 6, Op: Sum}, grid},
		{"allreduce2d", Shape{Kind: KindAllReduce2D, Alg2D: Snake, Width: 4, Height: 3, B: 6, Op: Sum}, grid},
		{"broadcast2d", Shape{Kind: KindBroadcast2D, Width: 4, Height: 3, B: 6}, grid[:1]},
		{"scatter", Shape{Kind: KindScatter, P: 6, B: 12}, vecs[:1]},
		{"gather", Shape{Kind: KindGather, P: 8, B: 20}, chunks},
		{"reducescatter", Shape{Kind: KindReduceScatter, P: 10, B: 16, Op: Sum}, rsVecs},
		{"allgather", Shape{Kind: KindAllGather, P: 8, B: 20}, chunks},
	}
	ctx := context.Background()
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			want, err := Run(ctx, r.shape, r.inputs)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ { // second call replays the cached plan
				got, err := s.Run(ctx, r.shape, r.inputs)
				if err != nil {
					t.Fatalf("replay %d: %v", rep, err)
				}
				sameFloats(t, "Root", got.Root, want.Root)
				if got.Cycles != want.Cycles {
					t.Fatalf("replay %d: Cycles = %d, one-shot %d", rep, got.Cycles, want.Cycles)
				}
				if got.Predicted != want.Predicted {
					t.Fatalf("replay %d: Predicted = %g, one-shot %g", rep, got.Predicted, want.Predicted)
				}
			}
		})
	}
	st := s.PlanStats()
	if st.Misses != int64(len(runs)) {
		t.Fatalf("%d misses, want one per collective kind (%d): %+v", st.Misses, len(runs), st)
	}
	if st.Hits != int64(len(runs)) {
		t.Fatalf("%d hits, want one per replay (%d): %+v", st.Hits, len(runs), st)
	}
}

// TestSessionConcurrent fans a mixed workload across goroutines; run with
// -race in CI.
func TestSessionConcurrent(t *testing.T) {
	s := NewSession(SessionConfig{PlanCacheCapacity: 8, Workers: 4})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := 4 + 4*(g%3)
			vecs := make([][]float32, p)
			for i := range vecs {
				v := make([]float32, 16)
				for j := range v {
					v[j] = 1
				}
				vecs[i] = v
			}
			for r := 0; r < 4; r++ {
				rep, err := s.Run(context.Background(), Shape{Kind: KindAllReduce, Alg: Tree, P: p, B: 16, Op: Sum}, vecs)
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Root[0] != float32(p) {
					t.Errorf("g%d: Root[0] = %v, want %d", g, rep.Root[0], p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.PlanStats()
	if st.Misses != 3 { // three distinct row lengths
		t.Fatalf("%d misses, want 3: %+v", st.Misses, st)
	}
}

// TestPredictBroadcastUsesParams guards the Options resolution path: a
// negative TR means a literal zero-latency ramp, which must flow through
// core.Params exactly like every other predictor.
func TestPredictBroadcastUsesParams(t *testing.T) {
	sh := Shape{Kind: KindBroadcast, P: 64, B: 256}
	def := Predict(sh)
	zero := Predict(sh, WithOptions(Options{TR: -1}))
	if def != Predict(sh, WithOptions(Options{TR: 2})) {
		t.Fatal("TR=0 should select the WSE-2 default of 2")
	}
	if zero >= def {
		t.Fatalf("TR<0 (zero-latency ramp) predicts %g, want < default %g", zero, def)
	}
}

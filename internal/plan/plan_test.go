package plan

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/measure"
)

func vectors(p, b int, seed float32) [][]float32 {
	out := make([][]float32, p)
	for i := range out {
		v := make([]float32, b)
		for j := range v {
			v[j] = seed + float32(i*b+j%7)
		}
		out[i] = v
	}
	return out
}

func sameVec(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReplayMatchesOneShot: for every collective kind — Auto resolved to
// the middle root, X-Y and a non-sum operator included — a plan a cache
// holds, taped at its miss and walking its tape from its first execution
// on, reports bit for bit what a plan compiled for one execution reports
// from the engine, and stays pristine over repeated replays.
func TestReplayMatchesOneShot(t *testing.T) {
	p, b := 16, 24
	vecs := vectors(p, b, 0.5)
	chunks := make([][]float32, p)
	{
		off, sz := core.Chunks(p, b)
		full := vectors(1, b, 2.25)[0]
		for j := range chunks {
			chunks[j] = full[off[j] : off[j]+sz[j]]
		}
	}
	grid := vectors(6*4, b, 1.125)

	cases := []struct {
		name   string
		req    Request
		inputs [][]float32
	}{
		{"reduce1d-autogen", Request{Kind: Reduce1D, Alg: core.AutoGen, P: p, B: b, Op: fabric.OpSum}, vecs},
		{"reduce1d-auto", Request{Kind: Reduce1D, Alg: core.Auto, P: p, B: b, Op: fabric.OpMax}, vecs},
		{"allreduce1d-twophase", Request{Kind: AllReduce1D, Alg: core.TwoPhase, P: p, B: b, Op: fabric.OpSum}, vecs},
		{"allreduce1d-ring", Request{Kind: AllReduce1D, Alg: core.Ring, P: p, B: b, Op: fabric.OpSum}, vecs},
		{"broadcast1d", Request{Kind: Broadcast1D, P: p, B: b}, [][]float32{vecs[3]}},
		{"reduce2d-snake", Request{Kind: Reduce2D, Alg2D: core.Snake, Width: 6, Height: 4, B: b, Op: fabric.OpSum}, grid},
		{"allreduce2d-auto", Request{Kind: AllReduce2D, Alg2D: core.Auto2D, Width: 6, Height: 4, B: b, Op: fabric.OpSum}, grid},
		{"broadcast2d", Request{Kind: Broadcast2D, Width: 6, Height: 4, B: b}, [][]float32{vecs[1]}},
		{"scatter", Request{Kind: Scatter, P: p, B: b}, [][]float32{vecs[0]}},
		{"gather", Request{Kind: Gather, P: p, B: b}, chunks},
		{"reducescatter", Request{Kind: ReduceScatter, P: p, B: b, Op: fabric.OpSum}, vecs},
		{"allgather", Request{Kind: AllGather, P: p, B: b}, chunks},
		{"midroot-auto", Request{Kind: AllReduceMidRoot, Alg: core.Auto, P: p + 1, B: b, Op: fabric.OpSum}, vectors(p+1, b, 0.5)},
	}
	c := NewCache(len(cases))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oneShot, err := Compile(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oneShot.Execute(tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(want.Predicted, 0) || math.IsNaN(want.Predicted) {
				t.Fatalf("Predicted = %g, want finite", want.Predicted)
			}
			pl, err := c.Get(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ { // record, then replay twice: the plan must stay pristine
				got, err := pl.Execute(tc.inputs)
				if err != nil {
					t.Fatalf("replay %d: %v", rep, err)
				}
				sameReportBits(t, want, got, fmt.Sprintf("replay %d", rep))
			}
		})
	}
}

// TestPlanMetadata checks the IR carries the lowering metadata.
func TestPlanMetadata(t *testing.T) {
	pl, err := Compile(Request{Kind: AllReduce1D, Alg: core.Auto, P: 64, B: 256, Op: fabric.OpSum})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Alg == core.Auto || pl.Alg == "" {
		t.Fatalf("Auto not resolved: %q", pl.Alg)
	}
	if pl.Tree.Len() != 64 {
		t.Fatalf("tree has %d vertices, want 64", pl.Tree.Len())
	}
	if len(pl.Colors) == 0 {
		t.Fatal("no routing colors recorded")
	}
	if pl.Predicted <= 0 {
		t.Fatalf("Predicted = %g", pl.Predicted)
	}
	if pl.Spec == nil || pl.Spec.Len() != 64 {
		t.Fatal("spec missing or wrong size")
	}

	pl2, err := Compile(Request{Kind: Reduce2D, Alg2D: core.XYTree, Width: 8, Height: 4, B: 16, Op: fabric.OpSum})
	if err != nil {
		t.Fatal(err)
	}
	if pl2.RowTree.Len() != 8 || pl2.ColTree.Len() != 4 {
		t.Fatalf("row/col trees %d/%d, want 8/4", pl2.RowTree.Len(), pl2.ColTree.Len())
	}
}

// TestCacheHitMissEviction drives the LRU accounting.
func TestCacheHitMissEviction(t *testing.T) {
	c := NewCache(2)
	req := func(p int) Request {
		return Request{Kind: Reduce1D, Alg: core.Chain, P: p, B: 8, Op: fabric.OpSum}
	}
	for _, p := range []int{4, 8} {
		if _, err := c.Get(req(p)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 || st.Size != 2 {
		t.Fatalf("after fill: %+v", st)
	}
	if _, err := c.Get(req(4)); err != nil { // hit; makes p=4 most recent
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("after hit: %+v", st)
	}
	if _, err := c.Get(req(16)); err != nil { // evicts p=8 (LRU)
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	if _, ok := c.Lookup(KeyOf(req(8))); ok {
		t.Fatal("p=8 should have been evicted")
	}
	if _, ok := c.Lookup(KeyOf(req(4))); !ok {
		t.Fatal("p=4 should be resident")
	}
	// Same shape under different fabric options is a different plan.
	r := req(4)
	r.Opt = fabric.Options{TaskActivation: 10}
	if _, err := c.Get(r); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 4 {
		t.Fatalf("option change should miss: %+v", st)
	}
	// TR 0 and the explicit default normalise to the same key.
	r = req(4)
	r.Opt = fabric.Options{TR: fabric.DefaultTR}
	if KeyOf(r) != KeyOf(req(4)) {
		t.Fatalf("TR=0 and TR=%d should share a key", fabric.DefaultTR)
	}
}

// TestCacheSingleflight checks racing lookups of one key compile once.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(8)
	req := Request{Kind: Reduce1D, Alg: core.AutoGen, P: 128, B: 64, Op: fabric.OpSum}
	const n = 16
	var wg sync.WaitGroup
	plans := make([]*Plan, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(req)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d misses for one key, want 1 (%+v)", st.Misses, st)
	}
	if st.Hits != n-1 {
		t.Fatalf("%d hits, want %d (%+v)", st.Hits, n-1, st)
	}
}

// TestSessionConcurrentMixedWorkload replays many shapes from many
// goroutines through a capacity-limited cache; run under -race this is
// the plan subsystem's concurrency proof. Results are verified against
// the closed form of an all-ones sum reduce.
func TestSessionConcurrentMixedWorkload(t *testing.T) {
	s := NewSession(4, 4) // smaller cache than working set: force evictions
	ones := func(p, b int) [][]float32 {
		out := make([][]float32, p)
		for i := range out {
			v := make([]float32, b)
			for j := range v {
				v[j] = 1
			}
			out[i] = v
		}
		return out
	}
	shapes := []struct {
		req Request
		p   int
	}{
		{Request{Kind: Reduce1D, Alg: core.Chain, P: 8, B: 16, Op: fabric.OpSum}, 8},
		{Request{Kind: Reduce1D, Alg: core.Tree, P: 16, B: 8, Op: fabric.OpSum}, 16},
		{Request{Kind: AllReduce1D, Alg: core.TwoPhase, P: 12, B: 12, Op: fabric.OpSum}, 12},
		{Request{Kind: Reduce1D, Alg: core.AutoGen, P: 32, B: 4, Op: fabric.OpSum}, 32},
		{Request{Kind: AllReduce1D, Alg: core.Star, P: 6, B: 32, Op: fabric.OpSum}, 6},
		{Request{Kind: Reduce2D, Alg2D: core.Snake, Width: 4, Height: 3, B: 8, Op: fabric.OpSum}, 12},
	}
	const rounds = 6
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sh := shapes[(g+r)%len(shapes)]
				var in [][]float32
				if sh.req.Kind == Reduce2D {
					in = ones(sh.req.Width*sh.req.Height, sh.req.B)
				} else {
					in = ones(sh.req.P, sh.req.B)
				}
				rep, err := s.Run(sh.req, in)
				if err != nil {
					t.Errorf("g%d r%d: %v", g, r, err)
					return
				}
				for j, v := range rep.Root {
					if v != float32(sh.p) {
						t.Errorf("g%d r%d: Root[%d] = %v, want %d", g, r, j, v, sh.p)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses != 8*rounds {
		t.Fatalf("accounting: hits %d + misses %d != %d lookups", st.Hits, st.Misses, 8*rounds)
	}
	if st.Size > 4 {
		t.Fatalf("cache over capacity: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("working set of %d shapes in a 4-plan cache should evict: %+v", len(shapes), st)
	}
}

// TestStampIsolation instruments a stamped copy of a plan with the §8.3
// measurement prologue (which rewrites Ops and Configs in place) and
// verifies the cached plan still replays bit-identically afterwards.
func TestStampIsolation(t *testing.T) {
	req := Request{Kind: Reduce1D, Alg: core.TwoPhase, P: 16, B: 8, Op: fabric.OpSum}
	pl, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := vectors(16, 8, 3)
	before, err := pl.Execute(in)
	if err != nil {
		t.Fatal(err)
	}

	dst := fabric.NewSpec(16, 1)
	if err := pl.Stamp(dst); err != nil {
		t.Fatal(err)
	}
	if err := measure.Instrument(dst, 16, 1, 2); err != nil {
		t.Fatal(err)
	}
	f, err := fabric.NewBound(dst, in, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}

	after, err := pl.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVec(before.Root, after.Root) || before.Cycles != after.Cycles {
		t.Fatalf("instrumenting a stamped copy corrupted the plan: %v/%d vs %v/%d",
			before.Root, before.Cycles, after.Root, after.Cycles)
	}
}

// TestExecuteInputValidation checks shape errors are caught at bind time.
func TestExecuteInputValidation(t *testing.T) {
	pl, err := Compile(Request{Kind: Reduce1D, Alg: core.Chain, P: 4, B: 8, Op: fabric.OpSum})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Execute(vectors(3, 8, 0)); err == nil {
		t.Fatal("wrong vector count accepted")
	}
	if _, err := pl.Execute(vectors(4, 7, 0)); err == nil {
		t.Fatal("wrong vector length accepted")
	}
	if _, err := Compile(Request{Kind: Kind("bogus"), P: 4, B: 8}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Compile(Request{Kind: Scatter, P: 1, B: 8}); err == nil {
		t.Fatal("1-PE scatter accepted")
	}
}

// TestPlanKeyDistinguishesShapes spot-checks key construction.
func TestPlanKeyDistinguishesShapes(t *testing.T) {
	base := Request{Kind: Reduce1D, Alg: core.Chain, P: 8, B: 16, Op: fabric.OpSum}
	mutants := []Request{
		{Kind: AllReduce1D, Alg: core.Chain, P: 8, B: 16, Op: fabric.OpSum},
		{Kind: Reduce1D, Alg: core.Tree, P: 8, B: 16, Op: fabric.OpSum},
		{Kind: Reduce1D, Alg: core.Chain, P: 9, B: 16, Op: fabric.OpSum},
		{Kind: Reduce1D, Alg: core.Chain, P: 8, B: 17, Op: fabric.OpSum},
		{Kind: Reduce1D, Alg: core.Chain, P: 8, B: 16, Op: fabric.OpMax},
	}
	seen := map[Key]string{KeyOf(base): "base"}
	for i, m := range mutants {
		k := KeyOf(m)
		if prev, dup := seen[k]; dup {
			t.Fatalf("mutant %d collides with %s", i, prev)
		}
		seen[k] = fmt.Sprintf("mutant %d", i)
	}
}

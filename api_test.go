package wse

// Tests of the Shape-first surface: the property that every verb, at all
// three serving levels, is bit-identical to the pre-plan core.Run*
// reference (same Report, same RNG chain) across all 11 kinds, typed
// ErrBadShape validation, columnar results, and batch replay.

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// apiVectors builds deterministic pseudo-random input vectors.
func apiVectors(p, b int, seed float32) [][]float32 {
	out := make([][]float32, p)
	x := seed
	for i := range out {
		v := make([]float32, b)
		for j := range v {
			x = x*1.3 + 0.7
			if x > 100 {
				x -= 200
			}
			v[j] = x
		}
		out[i] = v
	}
	return out
}

// constVectors builds p all-ones vectors of b elements.
func constVectors(p, b int) [][]float32 {
	out := make([][]float32, p)
	for i := range out {
		out[i] = slices.Repeat([]float32{1}, b)
	}
	return out
}

// apiChunks splits a deterministic vector into the canonical per-PE
// chunks for the gather kinds.
func apiChunks(p, b int) [][]float32 {
	full := apiVectors(1, b, 3)[0]
	off, sz := Chunks(p, b)
	out := make([][]float32, p)
	for j := range out {
		out[j] = full[off[j] : off[j]+sz[j]]
	}
	return out
}

// apiCase is one collective kind spelled two ways: the Shape + inputs of
// the public surface, and the internal core.Run* path that predates the
// plan layer — the ground truth every verb must match bit for bit.
type apiCase struct {
	name    string
	shape   Shape
	inputs  [][]float32
	coreRun func(opt Options) (*Report, error)
}

func apiCases() []apiCase {
	vecs := apiVectors(12, 9, 1)
	rsVecs := apiVectors(6, 13, 2) // ring wants B >= P
	grid := apiVectors(4*3, 5, 4)
	data := apiVectors(1, 17, 5)[0]
	chunks := apiChunks(7, 23)
	return []apiCase{
		{"reduce", Shape{Kind: KindReduce, Alg: TwoPhase, P: 12, B: 9, Op: Sum}, vecs,
			func(o Options) (*Report, error) { return core.RunReduce1D(TwoPhase, vecs, Sum, o) }},
		{"allreduce", Shape{Kind: KindAllReduce, Alg: Tree, P: 12, B: 9, Op: Max}, vecs,
			func(o Options) (*Report, error) { return core.RunAllReduce1D(Tree, vecs, Max, o) }},
		{"allreduce-ring", Shape{Kind: KindAllReduce, Alg: Ring, P: 6, B: 13, Op: Sum}, rsVecs,
			func(o Options) (*Report, error) { return core.RunAllReduce1D(Ring, rsVecs, Sum, o) }},
		{"allreduce-midroot", Shape{Kind: KindAllReduceMidRoot, Alg: Auto, P: 12, B: 9, Op: Sum}, vecs,
			func(o Options) (*Report, error) { return core.RunAllReduceMidRoot(Auto, vecs, Sum, o) }},
		{"broadcast", Shape{Kind: KindBroadcast, P: 9, B: 17}, [][]float32{data},
			func(o Options) (*Report, error) { return core.RunBroadcast1D(data, 9, o) }},
		{"reduce2d", Shape{Kind: KindReduce2D, Alg2D: XYTree, Width: 4, Height: 3, B: 5, Op: Sum}, grid,
			func(o Options) (*Report, error) { return core.RunReduce2D(XYTree, 4, 3, grid, Sum, o) }},
		{"allreduce2d", Shape{Kind: KindAllReduce2D, Alg2D: Snake, Width: 4, Height: 3, B: 5, Op: Min}, grid,
			func(o Options) (*Report, error) { return core.RunAllReduce2D(Snake, 4, 3, grid, Min, o) }},
		{"broadcast2d", Shape{Kind: KindBroadcast2D, Width: 4, Height: 3, B: 17}, [][]float32{data},
			func(o Options) (*Report, error) { return core.RunBroadcast2D(data, 4, 3, o) }},
		{"scatter", Shape{Kind: KindScatter, P: 7, B: 17}, [][]float32{data},
			func(o Options) (*Report, error) { return core.RunScatter(data, 7, o) }},
		{"gather", Shape{Kind: KindGather, P: 7, B: 23}, chunks,
			func(o Options) (*Report, error) { return core.RunGather(chunks, o) }},
		{"reducescatter", Shape{Kind: KindReduceScatter, P: 6, B: 13, Op: Sum}, rsVecs,
			func(o Options) (*Report, error) { return core.RunReduceScatter(rsVecs, Sum, o) }},
		{"allgather", Shape{Kind: KindAllGather, P: 7, B: 23}, chunks,
			func(o Options) (*Report, error) { return core.RunAllGather(chunks, o) }},
	}
}

func sameReport(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Fatalf("%s: cycles %d, want %d", label, got.Cycles, want.Cycles)
	}
	if got.Predicted != want.Predicted || math.IsInf(got.Predicted, 0) {
		t.Fatalf("%s: predicted %g, want %g (and finite)", label, got.Predicted, want.Predicted)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	sameFloats(t, label+" root", got.Root, want.Root)
	for c, w := range want.All {
		g := got.All[c]
		if g == nil && got.Columnar != nil {
			g = got.Columnar.At(c)
		}
		sameFloats(t, label+" PE acc", g, w)
	}
}

// TestLegacyBitIdenticalToShapeFirst is the plan layer's conservation
// law: for every collective kind, the package Run(ctx, Shape),
// Session.Run, Tenant.Run, Submit and the columnar layout all produce
// reports bit-identical to the legacy pre-plan path, core.Run*. The
// options turn on clock skew and thermal no-ops, so equality of Cycles
// and Stats.Noops also proves the deterministic RNG chain survived every
// path.
func TestLegacyBitIdenticalToShapeFirst(t *testing.T) {
	opt := Options{ClockSkewMax: 24, ThermalNoopRate: 0.03, Seed: 11}
	s := NewSession(SessionConfig{Options: opt})
	defer s.Close()
	tn := s.WithTenant("prop", TenantConfig{Weight: 2})
	ctx := context.Background()

	for _, tc := range apiCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.coreRun(opt)
			if err != nil {
				t.Fatalf("core ground truth: %v", err)
			}

			shaped, err := Run(ctx, tc.shape, tc.inputs, WithOptions(opt))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			sameReport(t, "Run vs core", shaped, want)

			sess, err := s.Run(ctx, tc.shape, tc.inputs)
			if err != nil {
				t.Fatalf("Session.Run: %v", err)
			}
			sameReport(t, "Session.Run vs core", sess, want)

			ten, err := tn.Run(ctx, tc.shape, tc.inputs)
			if err != nil {
				t.Fatalf("Tenant.Run: %v", err)
			}
			sameReport(t, "Tenant.Run vs core", ten, want)

			// The async verb resolves to the same report.
			fut, err := s.Submit(ctx, tc.shape, tc.inputs).Wait()
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			sameReport(t, "Submit vs core", fut, want)

			// The columnar layout carries the same values.
			col, err := s.Run(ctx, tc.shape, tc.inputs, WithColumnarResult())
			if err != nil {
				t.Fatalf("columnar Run: %v", err)
			}
			if col.All != nil || col.Columnar == nil {
				t.Fatalf("columnar Run: All=%v Columnar=%v, want nil map + columnar buffer", col.All, col.Columnar)
			}
			sameReport(t, "columnar vs core", col, want)
		})
	}
}

// TestPredictBoundMatchLegacy: Predict and Bound are total (NaN for an
// unknown kind), the bound is never above the estimate for the kinds
// where both are defined, and a session's verbs default to its options.
func TestPredictBoundMatchLegacy(t *testing.T) {
	if math.IsNaN(Predict(Shape{Kind: "nope", B: 1})) != true {
		t.Error("Predict of an unknown kind must be NaN")
	}
	if !math.IsNaN(Bound(Shape{Kind: "nope", B: 1})) {
		t.Error("Bound of an unknown kind must be NaN")
	}
	for _, tc := range apiCases() {
		bd, pd := Bound(tc.shape), Predict(tc.shape)
		if math.IsNaN(bd) || bd <= 0 || bd > pd+1e-9 {
			t.Errorf("%s: bound %g vs predict %g — bound must be positive and <= estimate", tc.name, bd, pd)
		}
	}
	// A session Predict/Bound defaults to the session's options, and an
	// explicit WithOptions overrides them.
	opt := Options{TR: 3}
	s := NewSession(SessionConfig{Options: opt})
	sh := Shape{Kind: KindReduce, Alg: Chain, P: 64, B: 48}
	if got, want := s.Predict(sh), Predict(sh, WithOptions(opt)); got != want || got == Predict(sh) {
		t.Errorf("Session.Predict %g, want %g (and not the default-options %g)", got, want, Predict(sh))
	}
	if got, want := s.Bound(sh), Bound(sh, WithOptions(opt)); got != want || got == Bound(sh) {
		t.Errorf("Session.Bound %g, want %g (and not the default-options %g)", got, want, Bound(sh))
	}
	if got, want := s.Predict(sh, WithOptions(Options{})), Predict(sh); got != want {
		t.Errorf("Session.Predict under WithOptions %g, want %g", got, want)
	}
}

// TestShapeValidateTyped: Validate rejects malformed shapes with errors
// wrapping ErrBadShape and accepts every runnable case shape.
func TestShapeValidateTyped(t *testing.T) {
	bad := []Shape{
		{}, // no kind, no B
		{Kind: KindReduce, P: 4, B: 0, Alg: Auto, Op: Sum},                      // empty vector
		{Kind: KindReduce, P: 0, B: 4, Alg: Auto, Op: Sum},                      // no PEs
		{Kind: KindReduce, P: 4, B: 4, Alg: "warp", Op: Sum},                    // unknown algorithm
		{Kind: KindReduce, P: 4, B: 4, Alg: Ring, Op: Sum},                      // ring is AllReduce-only
		{Kind: KindReduce, P: 4, B: 4, Alg: Auto, Op: 99},                       // unknown op
		{Kind: KindReduce2D, Width: 0, Height: 3, B: 4, Alg2D: Auto2D, Op: Sum}, // degenerate grid
		{Kind: KindReduce2D, Width: 3, Height: 3, B: 4, Alg2D: "diag", Op: Sum}, // unknown 2D mapping
		{Kind: KindBroadcast, P: 0, B: 4},                                       // no PEs
		{Kind: KindGather, P: 1, B: 4},                                          // chunked kinds need a real split
		{Kind: KindScatter, P: 1, B: 4},                                         // (the core builders reject one PE)
		{Kind: KindReduceScatter, P: 1, B: 4, Op: Sum},
		{Kind: KindAllGather, P: 1, B: 4},
		{Kind: KindScatter, P: 8, B: 7}, // B < P leaves empty chunks
		{Kind: KindGather, P: 8, B: 7},  // (the comm builders reject them)
		{Kind: KindReduceScatter, P: 8, B: 7, Op: Sum},
		{Kind: KindAllGather, P: 8, B: 1},
		{Kind: KindAllReduce, P: 8, B: 7, Alg: Ring, Op: Sum},   // the ring is chunked underneath
		{Kind: KindAllReduce, P: 8, B: 1, Alg: RingDP, Op: Sum}, // (same builder, same B >= P)
		{Kind: KindAllReduce, P: 1, B: 4, Alg: Ring, Op: Sum},
		{Kind: "transpose", P: 4, B: 4}, // unknown kind
	}
	for _, sh := range bad {
		if err := sh.Validate(); !errors.Is(err, ErrBadShape) {
			t.Errorf("Validate(%+v) = %v, want ErrBadShape", sh, err)
		}
	}
	for _, tc := range apiCases() {
		if err := tc.shape.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", tc.name, err)
		}
	}
	// Irrelevant fields are ignored, mirroring plan-key canonicalisation.
	if err := (Shape{Kind: KindBroadcast, P: 4, B: 4, Alg: "junk", Alg2D: "junk", Op: 99}).Validate(); err != nil {
		t.Errorf("broadcast with stray algorithm fields: %v, want nil", err)
	}
}

// TestBadInputsTyped: ragged, empty or mis-sized inputs surface as
// ErrBadShape from every verb, at every serving level.
func TestBadInputsTyped(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	tn := s.WithTenant("edge", TenantConfig{})
	ctx := context.Background()
	ragged := [][]float32{{1, 2}, {3}, {4, 5}}
	reduce3 := Shape{Kind: KindReduce, Alg: Auto, P: 3, B: 2, Op: Sum}
	cases := map[string]func() error{
		"one-shot ragged": func() error { _, err := Run(ctx, reduce3, ragged); return err },
		"one-shot empty":  func() error { _, err := Run(ctx, reduce3, nil); return err },
		"one-shot empty broadcast": func() error {
			_, err := Run(ctx, Shape{Kind: KindBroadcast, P: 4}, [][]float32{nil})
			return err
		},
		"one-shot bad chunks": func() error {
			_, err := Run(ctx, Shape{Kind: KindGather, P: 2, B: 6}, [][]float32{{1}, {2, 3, 4, 5, 6}})
			return err
		},
		"session ragged": func() error { _, err := s.Run(ctx, reduce3, ragged); return err },
		"tenant ragged":  func() error { _, err := tn.Run(ctx, reduce3, ragged); return err },
		"run arity": func() error {
			_, err := Run(ctx, Shape{Kind: KindReduce, Alg: Auto, P: 4, B: 2, Op: Sum}, ragged)
			return err
		},
		"batch entry": func() error {
			_, err := s.RunBatch(ctx, reduce3, [][][]float32{constVectors(3, 2), ragged})
			return err
		},
		"run scatter with empty chunks": func() error {
			_, err := Run(ctx, Shape{Kind: KindScatter, P: 4, B: 3}, [][]float32{{1, 2, 3}})
			return err
		},
		"session reduce-scatter with empty chunks": func() error {
			_, err := s.Run(ctx, Shape{Kind: KindReduceScatter, P: 4, B: 3, Op: Sum}, constVectors(4, 3))
			return err
		},
		"session ring allreduce with empty chunks": func() error {
			_, err := s.Run(ctx, Shape{Kind: KindAllReduce, Alg: Ring, P: 4, B: 3, Op: Sum}, constVectors(4, 3))
			return err
		},
		"submit future": func() error {
			return Submit(ctx, reduce3, ragged).Err()
		},
	}
	for name, f := range cases {
		if err := f(); !errors.Is(err, ErrBadShape) {
			t.Errorf("%s: %v, want ErrBadShape", name, err)
		}
	}
}

// TestRunBatchMatchesSingleRuns: a batch replay is bit-identical, entry
// by entry, to the same inputs run one at a time — in both result
// layouts — and batch reports never alias each other's data.
func TestRunBatchMatchesSingleRuns(t *testing.T) {
	sh := Shape{Kind: KindAllReduce, Alg: TwoPhase, P: 8, B: 6, Op: Sum}
	batches := make([][][]float32, 5)
	for i := range batches {
		batches[i] = apiVectors(8, 6, float32(i+1))
	}
	ctx := context.Background()
	s := NewSession(SessionConfig{})
	defer s.Close()

	singles := make([]*Report, len(batches))
	for i, inputs := range batches {
		rep, err := s.Run(ctx, sh, inputs)
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = rep
	}

	for _, mode := range []struct {
		name string
		opts []Option
	}{{"map", nil}, {"columnar", []Option{WithColumnarResult()}}} {
		t.Run(mode.name, func(t *testing.T) {
			for _, runner := range []struct {
				name string
				run  func() ([]*Report, error)
			}{
				{"package", func() ([]*Report, error) { return RunBatch(ctx, sh, batches, mode.opts...) }},
				{"session", func() ([]*Report, error) { return s.RunBatch(ctx, sh, batches, mode.opts...) }},
			} {
				reps, err := runner.run()
				if err != nil {
					t.Fatalf("%s: %v", runner.name, err)
				}
				if len(reps) != len(batches) {
					t.Fatalf("%s: %d reports, want %d", runner.name, len(reps), len(batches))
				}
				for i, rep := range reps {
					sameReport(t, runner.name, rep, singles[i])
				}
				// Entries hold distinct data, so reports sharing a buffer
				// would have collided; verify entry 0 kept its own root.
				sameFloats(t, runner.name+" entry 0 retained", reps[0].Root, singles[0].Root)
			}
		})
	}

	// Empty batch: no reports, no error.
	if reps, err := s.RunBatch(ctx, sh, nil); err != nil || len(reps) != 0 {
		t.Fatalf("empty batch: %v, %v", reps, err)
	}
}

// TestOneShotRunBatchRecordsOnce: a one-shot RunBatch simulates its plan
// once — the fabric.batch span says the first entry recorded, and no
// fabric.exec span sits beside it — and walks the tape for every entry, with
// reports bit-identical to as many one-shot Runs.
func TestOneShotRunBatchRecordsOnce(t *testing.T) {
	sh := Shape{Kind: KindReduce, Alg: Auto, P: planBenchP, B: planBenchB, Op: Sum}
	batches := make([][][]float32, 16)
	for i := range batches {
		batches[i] = apiVectors(sh.P, sh.B, float32(i+1))
	}
	tracer := obs.NewTracer(obs.Config{Sample: 1})
	defer tracer.Close()
	for _, mode := range [][]Option{nil, {WithColumnarResult()}} {
		ctx, root := tracer.Root(context.Background(), "test", "")
		reps, err := RunBatch(ctx, sh, batches, mode...)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range reps {
			single, err := Run(context.Background(), sh, batches[i])
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, "batch entry", rep, single)
		}
		var names []string
		for _, sp := range tracer.Traces(0, 1)[0].Spans {
			names = append(names, sp.Name)
			if sp.Name == "fabric.batch" && (sp.Attrs["mode"] != "record" || sp.Attrs["entries"] != len(batches)) {
				t.Fatalf("fabric.batch span %v, want mode record over %d entries", sp.Attrs, len(batches))
			}
		}
		if !slices.Equal(names, []string{"fabric.batch", "test"}) {
			t.Fatalf("spans %v, want the batch alone under the root", names)
		}
	}
}

// TestSessionRemoveTenant: the lifecycle half of per-user tenancy at the
// public surface — removal drops the tenant's accounting, frees its
// name, and the session keeps serving.
func TestSessionRemoveTenant(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	ctx := context.Background()
	vecs := constVectors(8, 4)
	user := s.WithTenant("user-17", TenantConfig{Weight: 4, Priority: Interactive})
	sh := Shape{Kind: KindReduce, Alg: Chain, P: 8, B: 4, Op: Sum}
	if _, err := user.Run(ctx, sh, vecs); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.SchedStats().Tenants["user-17"]; !ok {
		t.Fatal("tenant missing from stats before removal")
	}
	if !s.RemoveTenant("user-17") {
		t.Fatal("RemoveTenant reported the tenant absent")
	}
	if _, ok := s.SchedStats().Tenants["user-17"]; ok {
		t.Fatal("removed tenant still in stats")
	}
	if s.RemoveTenant("user-17") {
		t.Fatal("double removal reported true")
	}
	// The stale handle still works; it resubmits under a fresh
	// default-config tenant of the same name.
	if _, err := user.Run(ctx, sh, vecs); err != nil {
		t.Fatalf("stale handle after removal: %v", err)
	}
	if ts := s.SchedStats().Tenants["user-17"]; ts.Served != 1 || ts.Weight != 1 {
		t.Fatalf("recreated tenant ledger %+v, want fresh weight-1 tenant with one served", ts)
	}
	if !errors.Is(ErrTenantRemoved, ErrTenantRemoved) {
		t.Fatal("ErrTenantRemoved identity")
	}
}

// TestColumnarRoot2D: the columnar root and At lookups agree with the
// map layout on a grid shape (exercising the row-major binary search).
func TestColumnarRoot2D(t *testing.T) {
	sh := Shape{Kind: KindAllReduce2D, Alg2D: XYStar, Width: 5, Height: 4, B: 3, Op: Sum}
	grid := apiVectors(20, 3, 8)
	ctx := context.Background()
	want, err := Run(ctx, sh, grid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(ctx, sh, grid, WithColumnarResult())
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 5; x++ {
			c := mesh.Coord{X: x, Y: y}
			sameFloats(t, "grid PE", got.Columnar.At(c), want.All[c])
		}
	}
	sameFloats(t, "grid root", got.Root, want.Root)
}

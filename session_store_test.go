package wse

// Integration tests of plan persistence through the public surface: the
// export → warm deployment cycle, transparent read/write-through via
// SessionConfig.Store, and corruption handling end to end.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/planstore"
)

// storeShapes is a small mixed workload: 1D, 2D and chunked kinds.
func storeShapes() []Shape {
	return []Shape{
		{Kind: KindReduce, Alg: Auto, P: 32, B: 16, Op: Sum},
		{Kind: KindAllReduce2D, Alg2D: Auto2D, Width: 6, Height: 4, B: 8, Op: Sum},
		{Kind: KindAllGather, P: 8, B: 24},
	}
}

func runStoreShape(t *testing.T, s *Session, sh Shape) *Report {
	t.Helper()
	rep, err := s.Run(context.Background(), sh, sh.Inputs(func(n int) []float32 { return slices.Repeat([]float32{1}, n) }))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWarmStartServesWithoutCompiling is the deployment cycle end to end:
// a staging session compiles a shape list into a store, a fresh "serving
// process" warms from it, and its first requests are bit-identical to the
// staging session's — with zero cache misses, i.e. no compile on the
// serving path.
func TestWarmStartServesWithoutCompiling(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stage := NewSession(SessionConfig{})
	st, err := stage.Warm(store, storeShapes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Compiled != len(storeShapes()) || store.Len() != len(storeShapes()) {
		t.Fatalf("staging warm: %+v, store holds %d", st, store.Len())
	}
	want := make([]*Report, len(storeShapes()))
	for i, sh := range storeShapes() {
		want[i] = runStoreShape(t, stage, sh)
	}

	// A new process: fresh store handle, fresh session.
	store2, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	serve := NewSession(SessionConfig{})
	if st, err = serve.Warm(store2, nil); err != nil {
		t.Fatal(err)
	}
	if st.Loaded != len(storeShapes()) || st.Compiled != 0 {
		t.Fatalf("serving warm should decode everything: %+v", st)
	}
	for i, sh := range storeShapes() {
		got := runStoreShape(t, serve, sh)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("shape %d replays differently after warm-start", i)
		}
	}
	if ps := serve.PlanStats(); ps.Misses != 0 {
		t.Fatalf("warmed session compiled on the serving path: %+v", ps)
	}
}

// TestSessionStoreWriteThrough checks SessionConfig.Store: serving
// traffic populates the store as a side effect, and the next session
// decodes instead of compiling, transparently.
func TestSessionStoreWriteThrough(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sh := storeShapes()[0]

	first := NewSession(SessionConfig{Store: store})
	want := runStoreShape(t, first, sh)
	if store.Len() != 1 {
		t.Fatalf("write-through stored %d plans, want 1", store.Len())
	}
	if ps := first.PlanStats(); ps.StoreErrors != 0 {
		t.Fatalf("store errors during write-through: %+v", ps)
	}

	second := NewSession(SessionConfig{Store: store})
	got := runStoreShape(t, second, sh)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("store-loaded plan replays differently")
	}
	if ps := second.PlanStats(); ps.StoreHits != 1 {
		t.Fatalf("second session did not load from the store: %+v", ps)
	}
}

// TestCorruptStoreFallsBackToCompile tampers with every stored blob and
// checks a session still serves correctly — the corrupt entries are
// quarantined (at store open, which verifies every blob's content hash
// while rebuilding the index) and recompiled, never replayed.
func TestCorruptStoreFallsBackToCompile(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sh := storeShapes()[0]
	stage := NewSession(SessionConfig{Store: store})
	want := runStoreShape(t, stage, sh)

	blobs, err := filepath.Glob(filepath.Join(dir, "plans", "*.plan"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no blobs to corrupt: %v", err)
	}
	for _, path := range blobs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Opening verified every blob: the tampered one is quarantined and
	// gone from the index before a request could decode it.
	if store2.Len() != 0 {
		t.Fatalf("corrupt store still indexes %d plans", store2.Len())
	}
	q, err := filepath.Glob(filepath.Join(dir, "quarantine", "*.plan"))
	if err != nil || len(q) == 0 {
		t.Fatalf("nothing quarantined: %v", err)
	}

	serve := NewSession(SessionConfig{Store: store2})
	got := runStoreShape(t, serve, sh)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fallback compile replays differently")
	}
	if ps := serve.PlanStats(); ps.StoreHits != 0 {
		t.Fatalf("corrupt blob counted as a store hit: %+v", ps)
	}
	// The recompile wrote through: the store healed itself.
	if store2.Len() != 1 {
		t.Fatalf("store did not heal: holds %d plans", store2.Len())
	}
}

// allocKB reports how many KB of heap fn allocated.
func allocKB(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) >> 10
}

// TestTapedStoreHitBuildsNoFabric: a plan stored after its first run carries
// its replay tape, so a fresh session's first Run of it binds inputs and walks:
// the ledger shows a tape that was loaded and replayed, nothing recorded and
// no engine run. What that first run allocates is held at what it measured
// when the tape became runs, rounded up to the next 16 KB: for reduce1d P=512
// B=4, ~1 MB when it built a fabric, 391 KB with a tape of events, 364 KB
// now — the spec decode (221 KB), the map-shaped report with its image and
// wave buffer (64 KB), the tape decode (31 KB: coordinates, offset tables
// and 14 KB of runs), and the frame read, the key and the session around
// them (49 KB). The 256 KB first asked of it needs the spec decode to
// shrink (ROADMAP, engine memory).
func TestTapedStoreHitBuildsNoFabric(t *testing.T) {
	const boundKB = 368
	ctx := context.Background()
	sh := Shape{Kind: KindReduce, Alg: Auto, P: 512, B: 4}
	inputs := sh.Inputs(func(n int) []float32 { return []float32{1, 0.5, 0.25, 0.125}[:n] })
	store, err := OpenPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writer := NewSession(SessionConfig{Store: store})
	want, err := writer.Run(ctx, sh, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	if ws := writer.PlanStats(); ws.TapeRecords != 1 || store.Stats().Saves != 1 {
		t.Fatalf("writing side: %+v, %d saves; want one recording written once", ws, store.Stats().Saves)
	}

	s := NewSession(SessionConfig{Store: store})
	defer s.Close()
	var got *Report
	grew := allocKB(func() { got, err = s.Run(ctx, sh, inputs) })
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || !reflect.DeepEqual(got.Root, want.Root) {
		t.Fatalf("store hit reports %d cycles root %v, the recording run %d %v", got.Cycles, got.Root, want.Cycles, want.Root)
	}
	st := s.PlanStats()
	if st.Misses != 1 || st.StoreHits != 1 || st.StoreErrors != 0 || st.TapeReplays != 1 || st.TapeRecords != 0 || st.TapeLoaded != 1 {
		t.Errorf("plan ledger %+v; want 1 miss, 1 store hit, 0 store errors, 1 tape replay, 0 tape records, 1 tape loaded", st)
	}

	// The parts, each measured on its own, so that a failure names the one
	// that grew.
	frame, ok, err := store.LoadBlob(plan.KeyOf(sh.request(s.opt)))
	if err != nil || !ok {
		t.Fatalf("stored frame: ok=%v err=%v", ok, err)
	}
	p, _, err := planstore.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	specBytes, err := p.Spec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tape, _ := p.Tape()
	section := tape.AppendBinary(nil)
	specKB := allocKB(func() { err = fabric.NewSpec(1, 1).UnmarshalBinary(specBytes) })
	if err != nil {
		t.Fatal(err)
	}
	tapeKB := allocKB(func() { tape, err = fabric.DecodeTape(p.Spec, section) })
	if err != nil {
		t.Fatal(err)
	}
	reportKB := allocKB(func() { core.ReportOf(tape.Run(make([]float32, tape.AccLen())), 0) })
	parts := fmt.Sprintf("Spec decode %d KB (221 when the bound was set), tape decode %d KB (31: %d events in %d runs), image, walk and report %d KB (64), the rest %d KB (49)",
		specKB, tapeKB, tape.Events(), tape.Runs(), reportKB, int64(grew)-int64(specKB+tapeKB+reportKB))
	t.Logf("first Run of a taped store hit allocated %d KB: %s", grew, parts)
	if grew > boundKB {
		t.Errorf("first Run of a taped store hit allocated %d KB, over the %d KB it is held to: %s", grew, boundKB, parts)
	}
}

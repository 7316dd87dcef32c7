package planstore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
)

func mustCompile(t *testing.T, req plan.Request) *plan.Plan {
	t.Helper()
	p, err := plan.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func storeReq(p int) plan.Request {
	return plan.Request{Kind: plan.Reduce1D, Alg: core.Chain, P: p, B: 8, Op: fabric.OpSum}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := mustCompile(t, storeReq(8))
	hash, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := s.Put(p); err != nil || again != hash {
		t.Fatalf("re-put: %s, %v; want %s, nil", again, err, hash)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d plans, want 1", s.Len())
	}
	if h, ok := s.HashOf(p.Key); !ok || h != hash {
		t.Fatalf("HashOf = %s, %v", h, ok)
	}
	got, ok, err := s.Load(p.Key)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	inputs := inputsFor(p)
	want, err := p.Execute(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := got.Execute(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, rep) {
		t.Fatal("loaded plan replays differently")
	}
	// Unknown key: clean miss, no error.
	if _, ok, err := s.Load(plan.KeyOf(storeReq(16))); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
	// No temp droppings.
	ents, err := os.ReadDir(filepath.Join(s.Dir(), plansDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestStoreSaveRestoresDeletedBlob guards Put's identical-content fast
// path: re-saving a plan whose blob was deleted out-of-band must rewrite
// the blob, not report stale success off the index.
func TestStoreSaveRestoresDeletedBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := mustCompile(t, storeReq(8))
	hash, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, plansDir, hash+blobExt)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("blob not restored: %v", err)
	}
	if _, ok, err := s.Load(p.Key); !ok || err != nil {
		t.Fatalf("restored plan not loadable: ok=%v err=%v", ok, err)
	}
}

func TestStoreReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]plan.Key, 0, 3)
	for _, p := range []int{4, 8, 16} {
		pl := mustCompile(t, storeReq(p))
		if err := s.Save(pl); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, pl.Key)
	}
	// Delete the manifest: the blobs are the source of truth.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(keys) {
		t.Fatalf("reopened store holds %d plans, want %d", s2.Len(), len(keys))
	}
	for _, k := range keys {
		if _, ok, err := s2.Load(k); !ok || err != nil {
			t.Fatalf("key %v lost on reopen: ok=%v err=%v", k, ok, err)
		}
	}
	// The manifest is regenerated on open.
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest not rewritten: %v", err)
	}
}

// TestStoreOrphansZeroTRKeys: earlier builds keyed a zero-latency plan
// tr=0, the T_R that now selects the default. Such a frame is quarantined
// when the store opens, so Warm over the store neither loads it nor
// compiles the default ramp's plan in its place.
func TestStoreOrphansZeroTRKeys(t *testing.T) {
	dir := t.TempDir()
	req := storeReq(8)
	req.Opt.TR = -1
	p := mustCompile(t, req)
	p.Key.Opt.TR, p.Opt.TR = 0, 0
	data, hash, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, plansDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, plansDir, hash+blobExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("store indexes %v, want the tr=0 frame orphaned", s.Keys())
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, hash+blobExt)); err != nil {
		t.Fatalf("tr=0 frame not quarantined: %v", err)
	}
	st, err := plan.NewSession(0, 1).Warm(s, nil)
	if err != nil || st.Loaded != 0 || st.Compiled != 0 || s.Len() != 0 {
		t.Fatalf("Warm over the store: %+v, %v; store holds %d plans", st, err, s.Len())
	}
}

func TestStoreQuarantinesCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := mustCompile(t, storeReq(8))
	hash, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte on disk.
	path := filepath.Join(dir, plansDir, hash+blobExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok, err := s.Load(p.Key); ok || err == nil {
		t.Fatalf("corrupt blob served: ok=%v err=%v", ok, err)
	}
	// The blob moved to quarantine and left the index; a second load is a
	// clean miss so the cache falls back to compiling exactly once.
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, hash+blobExt)); err != nil {
		t.Fatalf("blob not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob still in plans/: %v", err)
	}
	if _, ok, err := s.Load(p.Key); ok || err != nil {
		t.Fatalf("post-quarantine load: ok=%v err=%v", ok, err)
	}
	if s.Len() != 0 {
		t.Fatalf("store still indexes %d plans", s.Len())
	}
	// Saving again heals the store.
	if err := s.Save(p); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(p.Key); !ok || err != nil {
		t.Fatalf("store did not heal: ok=%v err=%v", ok, err)
	}
}

func TestStoreVerifySweep(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := mustCompile(t, storeReq(4))
	bad := mustCompile(t, storeReq(8))
	if err := s.Save(good); err != nil {
		t.Fatal(err)
	}
	badHash, err := s.Put(bad)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, plansDir, badHash+blobExt)
	data, _ := os.ReadFile(path)
	data[headerLen+3] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	ok, quarantined, err := s.Verify()
	if err == nil {
		t.Fatal("verify of a corrupt store reported no error")
	}
	if ok != 1 || len(quarantined) != 1 || quarantined[0] != badHash {
		t.Fatalf("verify: ok=%d quarantined=%v", ok, quarantined)
	}
}

func TestStoreKeyRemapDropsOldBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := mustCompile(t, storeReq(8))
	oldHash, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	// Re-save different content under the same key (as a compiler change
	// across releases would): decode a copy and perturb a field outside
	// the key.
	data, _, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	p2.Predicted++
	newHash, err := s.Put(p2)
	if err != nil {
		t.Fatal(err)
	}
	if newHash == oldHash {
		t.Fatal("perturbed plan kept its address")
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d plans, want 1", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, plansDir, oldHash+blobExt)); !os.IsNotExist(err) {
		t.Fatalf("old blob not removed: %v", err)
	}
	got, ok, err := s.Load(p.Key)
	if !ok || err != nil {
		t.Fatalf("load after remap: ok=%v err=%v", ok, err)
	}
	if got.Predicted != p2.Predicted {
		t.Fatal("remapped key served stale content")
	}
}

// TestStoreStats exercises the operation accounting the serving daemon's
// /metrics endpoint reads: saves, loads, misses, and the load-error +
// quarantine counters on a corrupted blob.
func TestStoreStats(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := mustCompile(t, storeReq(8))
	hash, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(p.Key); !ok || err != nil {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := s.Load(plan.KeyOf(storeReq(16))); ok {
		t.Fatal("missing key loaded")
	}
	st := s.Stats()
	if st.LoadLatency <= 0 || st.SaveLatency <= 0 {
		t.Fatalf("latency totals not accumulated: %+v", st)
	}
	st.LoadLatency, st.SaveLatency = 0, 0 // wall-clock, not comparable exactly
	want := Stats{Loads: 1, Misses: 1, Saves: 1, Plans: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	// Corrupt the blob: the failed load must count as a load error and a
	// quarantine, and the plan leaves the index.
	if err := os.WriteFile(s.blobPath(hash), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(p.Key); err == nil {
		t.Fatal("corrupt blob loaded without error")
	}
	st = s.Stats()
	st.LoadLatency, st.SaveLatency = 0, 0
	want = Stats{Loads: 1, Misses: 1, Saves: 1, LoadErrors: 1, Quarantined: 1, Plans: 0}
	if st != want {
		t.Fatalf("stats after corruption = %+v, want %+v", st, want)
	}
}

package planstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/plan"
)

// tapeVariants are the engine configurations a stored tape is checked
// under: the paths of the cycle loop that change what a tape holds.
func tapeVariants() []fabric.Options {
	return []fabric.Options{
		{},
		{ClockSkewMax: 50, ThermalNoopRate: 0.2, Seed: 7},
		{TaskActivation: 3},
		{Shards: 3},
	}
}

// noisyInputs is inputsFor with values whose sums round, so a reduction
// applied in another order, or landing on another element, shows in the bits.
func noisyInputs(p *plan.Plan, seed float32) [][]float32 {
	in := inputsFor(p)
	for _, v := range in {
		for i := range v {
			v[i] = v[i]*0.37 + seed*0.011
		}
	}
	return in
}

// tapedPlan compiles req through a cache, whose miss records its replay
// tape.
func tapedPlan(t *testing.T, req plan.Request) *plan.Plan {
	t.Helper()
	p, err := plan.NewCache(0).Get(req)
	if err != nil {
		t.Fatal(err)
	}
	if tape, _ := p.Tape(); tape == nil {
		t.Fatal("a cache's miss recorded no tape")
	}
	return p
}

func sameBits(t *testing.T, want, got []float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// sameReport compares a report in either layout with the engine's
// map-shaped one: cycles, full Stats, prediction and every accumulator bit.
func sameReport(t *testing.T, want, got *core.Report, label string) {
	t.Helper()
	if got.Cycles != want.Cycles || got.Stats != want.Stats || got.Predicted != want.Predicted {
		t.Fatalf("%s: cycles %d stats %+v predicted %v, want %d %+v %v", label, got.Cycles, got.Stats, got.Predicted, want.Cycles, want.Stats, want.Predicted)
	}
	sameBits(t, want.Root, got.Root, label+" root")
	if col := got.Columnar; col != nil {
		if len(col.Coords) != len(want.All) {
			t.Fatalf("%s: %d PEs, want %d", label, len(col.Coords), len(want.All))
		}
		for _, c := range col.Coords {
			sameBits(t, want.All[c], col.At(c), fmt.Sprintf("%s PE %v", label, c))
		}
		return
	}
	if len(got.All) != len(want.All) {
		t.Fatalf("%s: %d PEs, want %d", label, len(got.All), len(want.All))
	}
	for c, w := range want.All {
		sameBits(t, w, got.All[c], fmt.Sprintf("%s PE %v", label, c))
	}
}

// TestStoredTapeMatchesEngine is the differential property of the stored
// tape: for every row of the kind table under every variant, a plan that
// ran once is saved, loaded by a fresh cache from the store, and its first
// executions there — map-shaped, columnar, batched — equal the simulator's
// bit for bit without the loading side ever recording (or building a
// fabric for) anything. The frame is a fixed point of decode→encode.
func TestStoredTapeMatchesEngine(t *testing.T) {
	for vi, opt := range tapeVariants() {
		reqs := kindRequests(opt)
		covered := make(map[plan.Kind]bool)
		for _, req := range reqs {
			covered[req.Kind] = true
		}
		for _, ki := range plan.Kinds {
			if !covered[ki.Kind] {
				t.Fatalf("kind %s of the kind table has no request here", ki.Kind)
			}
		}
		for _, req := range reqs {
			t.Run(fmt.Sprintf("%s/variant%d", req.Kind, vi), func(t *testing.T) {
				store, err := Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				written := tapedPlan(t, req)
				if err := store.Save(written); err != nil {
					t.Fatal(err)
				}
				frame, _, err := Encode(written)
				if err != nil {
					t.Fatal(err)
				}
				decoded, _, err := Decode(frame)
				if err != nil {
					t.Fatal(err)
				}
				if again, _, _ := Encode(decoded); !bytes.Equal(again, frame) {
					t.Fatal("encode(decode(frame)) is not the frame")
				}

				cache := plan.NewCache(0)
				cache.SetStore(store)
				p, err := cache.Get(req)
				if err != nil {
					t.Fatal(err)
				}
				in1, in2 := noisyInputs(p, 2), noisyInputs(p, 3)
				want1, err := p.ExecuteUnpooled(in1)
				if err != nil {
					t.Fatal(err)
				}
				want2, err := p.ExecuteUnpooled(in2)
				if err != nil {
					t.Fatal(err)
				}
				first, err := p.Execute(in1)
				if err != nil {
					t.Fatal(err)
				}
				sameReport(t, want1, first, "first execution")
				col, err := p.ExecuteCtx(context.Background(), in2, plan.ExecOptions{Columnar: true})
				if err != nil {
					t.Fatal(err)
				}
				sameReport(t, want2, col, "columnar execution")
				for _, eo := range []plan.ExecOptions{{}, {Columnar: true}} {
					batch, err := p.ExecuteBatch(context.Background(), [][][]float32{in1, in2}, eo)
					if err != nil {
						t.Fatal(err)
					}
					sameReport(t, want1, batch[0], fmt.Sprintf("batch entry 0 (columnar %v)", eo.Columnar))
					sameReport(t, want2, batch[1], fmt.Sprintf("batch entry 1 (columnar %v)", eo.Columnar))
				}
				st := cache.Stats()
				if st.Misses != 1 || st.StoreHits != 1 || st.StoreErrors != 0 ||
					st.TapeLoaded != 1 || st.TapeRecords != 0 || st.TapeDeclined != 0 || st.TapeReplays != 6 {
					t.Fatalf("loading side: %+v; want 1 miss served by the store, 1 tape loaded, 6 replays, nothing recorded", st)
				}
				if ss := store.Stats(); ss.Saves != 1 {
					t.Fatalf("store counts %d saves: a plan loaded with its tape was written again", ss.Saves)
				}
			})
		}
	}
}

// frameVersion reads the layout version and flags byte of a frame.
func frameVersion(frame []byte) (version uint16, flags byte) {
	return binary.LittleEndian.Uint16(frame[8:10]), frame[11]
}

// TestUntapedFrameHeals: a store of frames without a tape section — the
// committed untaped goldens, as a plan saved before any run of it is stored —
// loads under this build, serves, and heals: the load records each plan's
// tape and rewrites its frame once, as the taped frame the next process loads
// ready to replay.
func TestUntapedFrameHeals(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, plansDir), 0o755); err != nil {
		t.Fatal(err)
	}
	oldHash := make(map[plan.Kind]string)
	for _, req := range goldenCases() {
		frame, err := os.ReadFile(goldenPath(req.Kind, ""))

		if err != nil {
			t.Fatal(err)
		}
		if v, flags := frameVersion(frame); v != FormatVersion || flags != 0 {
			t.Fatalf("%s: committed golden is version %d flags %#x, want the untaped version-%d frame", req.Kind, v, flags, FormatVersion)
		}
		_, hash, err := Decode(frame)
		if err != nil {
			t.Fatalf("%s: untaped frame refused: %v", req.Kind, err)
		}
		oldHash[req.Kind] = hash
		if err := os.WriteFile(filepath.Join(dir, plansDir, hash+blobExt), frame, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := plan.NewCache(0)
	cache.SetStore(store)
	for _, req := range goldenCases() {
		p, err := cache.Get(req) // loads the untaped frame, records the tape and writes it back
		if err != nil {
			t.Fatal(err)
		}
		if tape, _ := p.Tape(); tape == nil {
			t.Fatalf("%s: an untaped frame was served without the tape its load records", req.Kind)
		}
		inputs := noisyInputs(p, 1)
		want, err := p.ExecuteUnpooled(inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Execute(inputs)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, want, got, string(req.Kind)+" first run")

		if v, flags := frameVersion(storedFrame(t, store, p.Key)); v != FormatVersion || flags != flagTape {
			t.Fatalf("%s: after its load the store holds version %d flags %#x, want the taped version-%d frame", req.Kind, v, flags, FormatVersion)
		}
		if _, err := os.Stat(filepath.Join(dir, plansDir, oldHash[req.Kind]+blobExt)); !os.IsNotExist(err) {
			t.Fatalf("%s: the untaped blob outlived its heal: %v", req.Kind, err)
		}
	}
	n := int64(len(goldenCases()))
	if st := cache.Stats(); st.StoreHits != n || st.StoreErrors != 0 || st.TapeLoaded != 0 || st.TapeRecords != n {
		t.Fatalf("healing side: %+v; want %d store hits, %d tapes recorded, none loaded", st, n, n)
	}
	if ss := store.Stats(); ss.Saves != n {
		t.Fatalf("store counts %d saves healing %d plans", ss.Saves, n)
	}

	if store, err = Open(dir); err != nil { // the next process
		t.Fatal(err)
	}
	next := plan.NewCache(0)
	next.SetStore(store)
	for _, req := range goldenCases() {
		p, err := next.Get(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(noisyInputs(p, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if st := next.Stats(); st.StoreHits != n || st.TapeLoaded != n || st.TapeRecords != 0 || st.TapeReplays != n {
		t.Fatalf("after the heal: %+v; want %d plans loaded with their tape and replayed from it", st, n)
	}
	if ss := store.Stats(); ss.Saves != 0 {
		t.Fatalf("the healed store was written %d more times", ss.Saves)
	}
}

// TestLegacyStoreRecompiles: a store of the frames an earlier build wrote
// (versions 1 to 3, every PE's program spelled out) opens with every one of
// them quarantined and none indexed. Each request then misses, compiles,
// records and saves exactly one frame of this version, whose reports are the
// engine's bit for bit, and the cache counts no store error.
func TestLegacyStoreRecompiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, plansDir), 0o755); err != nil {
		t.Fatal(err)
	}
	var legacy []string
	for _, req := range goldenCases() {
		for _, lf := range legacyFrames {
			frame, err := os.ReadFile(legacyPath(req.Kind, lf.suffix))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(frame[headerLen:])
			name := hex.EncodeToString(sum[:]) + blobExt
			if err := os.WriteFile(filepath.Join(dir, plansDir, name), frame, 0o644); err != nil {
				t.Fatal(err)
			}
			legacy = append(legacy, name)
		}
	}
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("the store indexed %d legacy frames", store.Len())
	}
	for _, name := range legacy {
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
			t.Fatalf("legacy blob %s is not in quarantine: %v", name, err)
		}
	}
	cache := plan.NewCache(0)
	cache.SetStore(store)
	for _, req := range goldenCases() {
		p, err := cache.Get(req)
		if err != nil {
			t.Fatal(err)
		}
		inputs := noisyInputs(p, 1)
		want, err := p.ExecuteUnpooled(inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Execute(inputs)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, want, got, string(req.Kind)+" first run")
		if v, flags := frameVersion(storedFrame(t, store, p.Key)); v != FormatVersion || flags != flagTape {
			t.Fatalf("%s: the store holds version %d flags %#x, want the taped version-%d frame", req.Kind, v, flags, FormatVersion)
		}
	}
	n := int64(len(goldenCases()))
	if st := cache.Stats(); st.Misses != n || st.StoreHits != 0 || st.StoreErrors != 0 || st.TapeRecords != n {
		t.Fatalf("over a legacy store: %+v; want %d misses compiled and recorded, no store hit or error", st, n)
	}
	if ss := store.Stats(); ss.Saves != n || store.Len() != int(n) {
		t.Fatalf("store counts %d saves, %d plans, for %d plans compiled", ss.Saves, store.Len(), n)
	}
}

// storedFrame reads the raw frame s holds for key, from its blob.
func storedFrame(t *testing.T, s *Store, key plan.Key) []byte {
	t.Helper()
	hash, ok := s.HashOf(key)
	if !ok {
		t.Fatalf("the store holds no frame for %v", key)
	}
	frame, err := os.ReadFile(s.blobPath(hash))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// reframe rebuilds a frame around payload, sealed with a correct digest.
func reframe(payload []byte, tape bool) []byte {
	frame := append(make([]byte, headerLen), payload...)
	seal(frame, tape)
	return frame
}

// tapeSectionOf returns where the tape's own section starts in a frame of p.
func tapeSectionOf(t *testing.T, p *plan.Plan, frame []byte) int {
	t.Helper()
	tape, _ := p.Tape()
	section := tape.AppendBinary(nil)
	if !bytes.HasSuffix(frame, section) {
		t.Fatal("the frame does not end in the tape's section")
	}
	return len(frame) - len(section)
}

// spelledRun is one run of a tape section as the frame spells it
// (fabric/tapecodec.go): head n<<3|kind, the first element from where the
// run before ended, and for a consume the first wave from where the consume
// before ended. Kind 0 loads, 1 stores, 2 onwards reduces (sum, max, min).
type spelledRun struct {
	kind, n   uint64
	acc, wave int64
}

// splitSection cuts the tape section of a plan of pes PEs into everything
// before its run count and the runs themselves.
func splitSection(t *testing.T, section []byte, pes int) (head []byte, runs []spelledRun) {
	t.Helper()
	at := 0
	uvarint := func() uint64 {
		v, n := binary.Uvarint(section[at:])
		if n <= 0 {
			t.Fatalf("tape section unreadable at byte %d", at)
		}
		at += n
		return v
	}
	varint := func() int64 {
		u := uvarint()
		return int64(u>>1) ^ -int64(u&1)
	}
	for i := 0; i < 7+pes; i++ { // cycles, six Stats counters, one accumulator length per PE
		uvarint()
	}
	for clocks := uvarint(); clocks > 0; clocks-- {
		varint()
	}
	head = section[:at]
	runs = make([]spelledRun, uvarint())
	for i := range runs {
		h := uvarint()
		runs[i] = spelledRun{kind: h & 7, n: h >> 3, acc: varint()}
		if runs[i].kind != 0 {
			runs[i].wave = varint()
		}
	}
	if at != len(section) {
		t.Fatalf("tape section has %d bytes after its runs", len(section)-at)
	}
	return head, runs
}

// joinSection is the section of head and runs, under the run count given.
func joinSection(head []byte, count int, runs []spelledRun) []byte {
	out := binary.AppendUvarint(append([]byte(nil), head...), uint64(count))
	for _, r := range runs {
		out = binary.AppendUvarint(out, r.n<<3|r.kind)
		out = binary.AppendVarint(out, r.acc)
		if r.kind != 0 {
			out = binary.AppendVarint(out, r.wave)
		}
	}
	return out
}

// TestVerifyCatchesLyingTape: a frame whose tape stores where the program
// reduces, re-sealed under a correct SHA-256, is well-formed — it loads and
// would be served — and is what the -verify-store sweep exists for: the
// sweep re-simulates, quarantines the blob like a hash failure, and the plan
// recompiles.
func TestVerifyCatchesLyingTape(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := kindRequests(noisyOpt)[0]
	honest := tapedPlan(t, req)
	other := tapedPlan(t, kindRequests(noisyOpt)[1])
	if err := store.Save(other); err != nil {
		t.Fatal(err)
	}
	frame, _, err := Encode(honest)
	if err != nil {
		t.Fatal(err)
	}
	at := tapeSectionOf(t, honest, frame)
	head, runs := splitSection(t, frame[at:], honest.Spec.Len())
	lie := -1
	for i, r := range runs {
		if r.kind == 2 { // a sum run into the root: told as a store
			lie = i
		}
	}
	if lie < 0 {
		t.Fatal("the tape of a sum reduce has no sum run")
	}
	runs[lie].kind = 1
	forged := reframe(append(append([]byte(nil), frame[headerLen:at]...), joinSection(head, len(runs), runs)...), true)
	p, hash, err := Decode(forged)
	if err != nil {
		t.Fatalf("the forged frame is malformed, not lying: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, plansDir, hash+blobExt), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if store, err = Open(dir); err != nil { // index the planted blob
		t.Fatal(err)
	}
	if _, ok, err := store.Load(p.Key); err != nil || !ok {
		t.Fatalf("the forged frame does not load: ok=%v err=%v", ok, err)
	}
	want, err := p.ExecuteUnpooled(noisyInputs(p, 1))
	if err != nil {
		t.Fatal(err)
	}
	if served, err := p.Execute(noisyInputs(p, 1)); err != nil || served.Cycles != want.Cycles || served.Root[0] == want.Root[0] {
		t.Fatalf("the forged tape serves %v (err %v), the simulator computes %v: no lie told", served, err, want.Root)
	}

	ok, quarantined, err := store.Verify()
	if err == nil || !strings.Contains(err.Error(), "accumulators") {
		t.Fatalf("verify let the lying tape pass: %v", err)
	}
	if ok != 1 || len(quarantined) != 1 || quarantined[0] != hash {
		t.Fatalf("verify: %d healthy, quarantined %v; want the honest plan kept and %s quarantined", ok, quarantined, hash)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, hash+blobExt)); err != nil {
		t.Fatalf("the lying blob is not in quarantine: %v", err)
	}
	cache := plan.NewCache(0)
	cache.SetStore(store)
	fresh, err := cache.Get(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Execute(noisyInputs(fresh, 1))
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, want, got, "recompiled plan")
	if st := cache.Stats(); st.Misses != 1 || st.StoreHits != 0 || st.TapeRecords != 1 {
		t.Fatalf("after the sweep: %+v; want the plan recompiled and recorded afresh", st)
	}
	if restored, ok, err := store.Load(plan.KeyOf(req)); err != nil || !ok {
		t.Fatalf("the recompiled plan was not written back: ok=%v err=%v", ok, err)
	} else if err := restored.CheckTape(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsHostileTapeFrames holds the frame and its tape section to
// the decoded program (fabric's TestTapeCodecRejectsHostileSections holds
// the section on a two-PE program): every frame here carries a correct
// digest and is one decode error.
func TestDecodeRejectsHostileTapeFrames(t *testing.T) {
	p := tapedPlan(t, plan.Request{Kind: plan.AllGather, P: 3, B: 7})
	taped, _, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	bare, _, err := Encode(mustCompile(t, plan.Request{Kind: plan.AllGather, P: 3, B: 7}))
	if err != nil {
		t.Fatal(err)
	}
	at := tapeSectionOf(t, p, taped)
	lensAt := len(bare) // the tape part starts where the untaped payload ends
	if !bytes.Equal(taped[headerLen:lensAt], bare[headerLen:]) {
		t.Fatal("a taped payload does not start with the untaped payload")
	}
	if want := []byte{3, 3, 2, 2}; !bytes.Equal(taped[lensAt:at], want) { // 3 inputs: chunks of 3, 2, 2
		t.Fatalf("input lengths are spelled % x, want % x", taped[lensAt:at], want)
	}
	splice := func(lens, section []byte) []byte {
		payload := append([]byte(nil), taped[headerLen:lensAt]...)
		return append(append(payload, lens...), section...)
	}
	section := taped[at:]
	// The section opens with cycles and six Stats counters, then one
	// accumulator length per PE: every PE of an allgather holds B elements.
	accAt := 0
	for i := 0; i < 7; i++ {
		_, n := binary.Uvarint(section[accAt:])
		accAt += n
	}
	if !bytes.Equal(section[accAt:accAt+3], []byte{7, 7, 7}) {
		t.Fatalf("accumulator lengths are spelled % x, want 07 07 07", section[accAt:accAt+3])
	}
	longerAcc := append([]byte(nil), section...)
	longerAcc[accAt+2] = 8
	// The runs: the PEs pass their chunks (3, 2 and 2 elements of the
	// 21-element image) along the row, a load run a send and a store run a
	// receive.
	head, runs := splitSection(t, section, 3)
	events, firstStore := uint64(0), -1
	for i, r := range runs {
		events += r.n
		if r.kind == 1 && firstStore < 0 {
			firstStore = i
		}
	}
	if tape, _ := p.Tape(); events != uint64(tape.Events()) || len(runs) != tape.Runs() || firstStore < 1 || runs[0].kind != 0 {
		t.Fatalf("the tape's %d events in %d runs are spelled %+v; want a load run first and a store run after it", tape.Events(), tape.Runs(), runs)
	}
	withRuns := func(count int, edit func(r []spelledRun) []spelledRun) []byte {
		return reframe(splice([]byte{3, 3, 2, 2}, joinSection(head, count, edit(append([]spelledRun(nil), runs...)))), true)
	}
	same := len(runs)
	padded := joinSection(head, same, runs)
	padded = append(padded[:len(padded)-1], padded[len(padded)-1]|0x80, 0x00) // the last varint, one byte longer

	unknownFlag := append([]byte(nil), taped...)
	unknownFlag[11] = flagTape | 0x02
	future := append([]byte(nil), taped...)
	binary.LittleEndian.PutUint16(future[8:10], FormatVersion+1)
	earlier := append([]byte(nil), taped...)
	binary.LittleEndian.PutUint16(earlier[8:10], FormatVersion-1)

	if _, _, err := Decode(withRuns(same, func(r []spelledRun) []spelledRun { return r })); err != nil {
		t.Fatalf("the frame reassembled from its own parts is refused: %v", err)
	}
	for _, c := range []struct {
		name, want string
		frame      []byte
	}{
		{"unknown flags bit", "flags byte 0x3", unknownFlag},
		{"future version", fmt.Sprintf("format version %d", FormatVersion+1), future},
		{"earlier version", fmt.Sprintf("format version %d", FormatVersion-1), earlier},
		{"tape section without the tape flag", "trailing payload bytes", reframe(taped[headerLen:], false)},
		{"tape flag without a tape section", "decode tape", reframe(bare[headerLen:], true)},
		{"trailing bytes after the tape", "trailing bytes", reframe(append(append([]byte(nil), taped[headerLen:]...), 0), true)},
		{"one input length too many", "wants 3 input vector(s), got 4", reframe(splice([]byte{4, 3, 2, 2, 0}, section), true)},
		{"input lengths not the kind's chunks", "input 1 has 3 elements, want 2", reframe(splice([]byte{3, 3, 3, 1}, section), true)},
		{"input count over the bytes left", "input lengths truncated", reframe(splice([]byte{0xff, 0x7f}, nil), true)},
		{"non-shortest input length", "decode tape", reframe(splice([]byte{3, 0x83, 0x00, 2, 2}, section), true)},
		{"accumulator longer than the program lays out", "accumulator of 8 elements, the program lays out 7", reframe(splice([]byte{3, 3, 2, 2}, longerAcc), true)},

		{"run of no elements", "0 elements", withRuns(same, func(r []spelledRun) []spelledRun {
			r[0].n = 0
			return r
		})},
		{"run past the image end", "of an image of 21", withRuns(same, func(r []spelledRun) []spelledRun {
			r[0].acc += 21
			return r
		})},
		{"consume past the waves loaded so far", "loaded so far", withRuns(same, func(r []spelledRun) []spelledRun {
			r[firstStore].wave += 7 // the walk would read a wave of an earlier run's
			return r
		})},
		{"unknown kind", "kind 5", withRuns(same, func(r []spelledRun) []spelledRun {
			r[firstStore].kind = 5
			return r
		})},
		{"runs moving more than the program's events", "elements of the", withRuns(same+1, func(r []spelledRun) []spelledRun {
			return append(r, spelledRun{kind: 0, n: 1, acc: -1})
		})},
		{"runs moving fewer than the program's events", fmt.Sprintf("the program leaves %d", events), withRuns(same-1, func(r []spelledRun) []spelledRun {
			return r[:len(r)-1]
		})},
		{"run count over the program's events", fmt.Sprintf("%d runs in", events+1), withRuns(int(events)+1, func(r []spelledRun) []spelledRun { return r })},
		{"run count over the runs", "truncated", withRuns(same+1, func(r []spelledRun) []spelledRun { return r })},
		{"run count under the runs", "trailing bytes", withRuns(same-1, func(r []spelledRun) []spelledRun {
			last := r[len(r)-1]
			r[len(r)-2].n += last.n // Σn right, one run left over
			return r
		})},
		{"non-shortest varint in a run", "truncated", reframe(splice([]byte{3, 3, 2, 2}, padded), true)},
	} {
		_, _, err := Decode(c.frame)
		if err == nil {
			t.Errorf("%s: frame accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: refused with %q, want it to say %q", c.name, err, c.want)
		}
	}
}

// TestLoadBesideHealingPut: saving a plan again with its tape moves its key to
// a new content address and removes the old blob — possibly after a concurrent
// Load has looked the old address up and before it reads the file. That Load
// follows the key to its new address: it never reports a stored plan missing,
// which would cost its caller a recompile and a bare frame saved over the
// taped one.
func TestLoadBesideHealingPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := storeReq(8)
	bare, taped := mustCompile(t, req), tapedPlan(t, req)
	if _, err := s.Put(bare); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	loaded := make(chan error, 4)
	for i := 0; i < cap(loaded); i++ {
		go func() {
			for {
				select {
				case <-stop:
					loaded <- nil
					return
				default:
				}
				if _, ok, err := s.Load(bare.Key); err != nil || !ok {
					loaded <- fmt.Errorf("Load beside a Put moving the key: ok=%v err=%v", ok, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		for _, p := range []*plan.Plan{taped, bare} {
			if _, err := s.Put(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	for i := 0; i < cap(loaded); i++ {
		if err := <-loaded; err != nil {
			t.Error(err)
		}
	}
	if st := s.Stats(); st.Misses != 0 || st.LoadErrors != 0 || s.Len() != 1 {
		t.Errorf("store after the race: %+v, %d plans; want no miss, no error, one plan", st, s.Len())
	}
}

// zeroInputs is one run's inputs for req, every element zero.
func zeroInputs(req plan.Request) [][]float32 {
	return req.Inputs(func(n int) []float32 { return make([]float32, n) })
}

// TestEveryKindIsWrittenOnceTaped: for every row of plan.Kinds, each way a
// plan reaches a store — a session's write-through miss, Cache.Get,
// Prefetch and Warm — writes exactly one frame per plan, the
// taped frame; and a fresh session over that store serves
// every kind with no compile and no fabric built: its compile stage is never
// asked, and every fabric.exec span is a tape walk (a fabric is built only
// for an engine run or a recording). TestUntapedFrameHeals holds the heal
// of a store of untaped frames to one rewrite per plan.
func TestEveryKindIsWrittenOnceTaped(t *testing.T) {
	reqs := goldenCases()
	if len(reqs) != len(plan.Kinds) {
		t.Fatalf("%d cases for %d kinds", len(reqs), len(plan.Kinds))
	}
	n := int64(len(reqs))
	ctx := context.Background()
	for _, entry := range []struct {
		name  string
		write func(s *Store) error
	}{
		{"Session.Run", func(s *Store) error {
			sess := plan.NewSession(0, 1)
			defer sess.Close()
			sess.SetStore(s)
			for _, req := range reqs {
				if _, err := sess.Run(req, zeroInputs(req)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Cache.Get", func(s *Store) error {
			c := plan.NewCache(0)
			c.SetStore(s)
			for _, req := range reqs {
				if _, err := c.Get(req); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Session.Prefetch", func(s *Store) error {
			sess := plan.NewSession(0, 1)
			sess.SetStore(s)
			for _, req := range reqs {
				if _, err := sess.Prefetch(ctx, req); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Session.Warm", func(s *Store) error {
			_, err := plan.NewSession(0, 1).Warm(s, reqs)
			return err
		}},
	} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := entry.write(s); err != nil {
			t.Fatalf("%s: %v", entry.name, err)
		}
		if saves := s.Stats().Saves; saves != n {
			t.Fatalf("%s: %d saves for %d plans", entry.name, saves, n)
		}
		for _, req := range reqs {
			if v, flags := frameVersion(storedFrame(t, s, plan.KeyOf(req))); v != FormatVersion || flags != flagTape {
				t.Fatalf("%s: %s stored as version %d flags %#x, want the taped version-%d frame", entry.name, req.Kind, v, flags, FormatVersion)
			}
		}

		sess := plan.NewSession(0, 1)
		sess.SetStore(s)
		tracer := obs.NewTracer(obs.Config{Sample: 1})
		for _, req := range reqs {
			rctx, root := tracer.Root(ctx, "run", "")
			_, err := sess.Submit(rctx, "", req, zeroInputs(req))
			root.End()
			if err != nil {
				t.Fatalf("%s: serving %s: %v", entry.name, req.Kind, err)
			}
		}
		sess.Close()
		tracer.Close()
		for _, tr := range tracer.Traces(0, 0) {
			for _, sp := range tr.Spans {
				if sp.Name == "resolve.compile" || sp.Name == "fabric.exec" && sp.Attrs["mode"] != "tape" {
					t.Fatalf("%s: the serving session ran %s %v", entry.name, sp.Name, sp.Attrs)
				}
			}
		}
		for _, stage := range sess.Resolver().Stats() {
			if stage.Stage == "compile" && stage.Lookups != 0 {
				t.Fatalf("%s: the serving session compiled %d plans", entry.name, stage.Lookups)
			}
		}
		st := sess.Stats()
		if st.StoreHits != n || st.TapeLoaded != n || st.TapeRecords != 0 || st.TapeDeclined != 0 || st.TapeReplays != n || s.Stats().Saves != n {
			t.Fatalf("%s: serving session %+v, %d saves; want %d plans loaded taped, replayed, nothing written", entry.name, st, s.Stats().Saves, n)
		}
	}
}

// TestCacheCountsEveryPlanOnce: every plan a cache takes in is counted in
// exactly one of TapeRecords, TapeLoaded and TapeDeclined, by the tape it
// arrives with — whether the chain compiled it, loaded it taped, healed a
// bare frame, or handed over a plan that replays no tape.
func TestCacheCountsEveryPlanOnce(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loaded, bare := storeReq(6), storeReq(7)
	if _, err := s.Put(tapedPlan(t, loaded)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(mustCompile(t, bare)); err != nil {
		t.Fatal(err)
	}
	traced, wedged := storeReq(8), storeReq(9)
	traced.Opt.Tracer = &fabric.Tracer{Cap: 1}
	wedged.Opt.MaxCycles = 3 // the engine fails it: nothing to record
	cache := plan.NewCache(0)
	cache.SetStore(s)
	for _, req := range []plan.Request{storeReq(5), loaded, bare, traced, wedged} {
		if _, err := cache.Get(req); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.TapeRecords != 2 || st.TapeLoaded != 1 || st.TapeDeclined != 2 || int(st.TapeRecords+st.TapeLoaded+st.TapeDeclined) != st.Size {
		t.Fatalf("%+v: want 2 recorded (compiled, healed), 1 loaded, 2 declined (traced, wedged) of %d plans", st, st.Size)
	}
}

package planstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"

	"repro/internal/plan"
)

// allocBytes reports how many heap bytes fn allocated.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecode holds the plan decoder to its contract on arbitrary bytes: it
// never panics, what it allocates is bounded by a small multiple of the
// blob, and whatever it accepts re-encodes to the very same bytes. The
// content hash would stop every mutated blob at the header, so each input
// is tried twice: as it stands, and with its payload sealed afresh under a
// matching header of every version — the blob an attacker who can write
// the store, or a bit flip that happens before hashing, would produce. Seeds
// are the per-kind golden plans of every version: without a replay tape,
// with one no build decodes any more, and with one as runs.
func FuzzDecode(f *testing.F) {
	for _, req := range goldenCases() {
		for _, gf := range goldenFrames {
			data, err := os.ReadFile(goldenPath(req.Kind, gf.suffix))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		payload := data
		if len(data) >= headerLen {
			payload = data[headerLen:]
		}
		frame := append(make([]byte, headerLen), payload...)
		for _, gf := range goldenFrames {
			seal(frame, gf.version != tapelessVersion)
			binary.LittleEndian.PutUint16(frame[8:10], gf.version)
			checkDecode(t, frame)
		}
	})
}

func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var (
		pl  *plan.Plan
		err error
	)
	grew := allocBytes(func() { pl, _, err = Decode(data) })
	if limit := uint64(64*len(data) + 64<<10); grew > limit {
		t.Fatalf("decoding a %d-byte blob allocated %d bytes (limit %d)", len(data), grew, limit)
	}
	if err != nil {
		return
	}
	again, _, err := Encode(pl)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := frameVersion(data); v == eventsVersion {
		// Read for its program alone: what comes back is the version-1 frame
		// of that program, the payload up to where the skipped tape began.
		if n := len(again); n > len(data) || !bytes.Equal(again[headerLen:], data[headerLen:n]) {
			t.Fatalf("the program of an accepted version-2 blob is not canonical:\n   in %x\n out %x", data, again)
		}
		return
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("accepted blob is not canonical:\n   in %x\n out %x", data, again)
	}
}

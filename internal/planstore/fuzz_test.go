package planstore

import (
	"bytes"
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
// matching header, with and without the tape flag — the blob an attacker who
// can write the store, or a bit flip that happens before hashing, would
// produce. Seeds are the per-kind golden plans (version-5 frames), without a
// replay tape and with one, the taped frames of every kind under clock skew
// and thermal noise, and a frame whose color count wraps as an int.
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
	for _, req := range kindRequests(noisyOpt) {
		p, err := plan.NewCache(0).Get(req)
		if err != nil {
			f.Fatal(err)
		}
		data, _, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(forgedColorCount(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		payload := data
		if len(data) >= headerLen {
			payload = data[headerLen:]
		}
		frame := append(make([]byte, headerLen), payload...)
		for _, taped := range []bool{false, true} {
			seal(frame, taped)
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
	if !bytes.Equal(again, data) {
		t.Fatalf("accepted blob is not canonical:\n   in %x\n out %x", data, again)
	}
}

package fabric_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/planstore"
)

// allocBytes reports how many heap bytes fn allocated.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzSpecUnmarshalBinary holds the spec decoder to its contract on
// arbitrary bytes: it never panics, what it allocates is bounded by a small
// multiple of the frame (a count read from the frame never sizes an arena
// on its own), and whatever it accepts re-encodes to the very same bytes.
// Seeds are the programs of the per-kind golden plans, a spec with init
// vectors and clock slots, and frames whose counts claim far more than
// their bytes hold.
func FuzzSpecUnmarshalBinary(f *testing.F) {
	blobs, err := filepath.Glob(filepath.Join("..", "planstore", "testdata", "*.plan"))
	if err != nil || len(blobs) == 0 {
		f.Fatalf("no golden plans to seed from: %v", err)
	}
	for _, path := range blobs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		pl, _, err := planstore.Decode(data)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		frame, err := pl.Spec.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	s := fabric.NewSpec(2, 2)
	pe := s.PE(mesh.Coord{X: 1, Y: 1})
	pe.Init = []float32{1.5, -2}
	pe.ClockSlots = 1
	pe.Ops = []fabric.Op{{Kind: fabric.OpSampleClock}, {Kind: fabric.OpSendRecvStore, Color: 3, OutColor: 4, N: 2, N2: 1, Off2: 1}}
	pe.AddConfig(4, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West), Times: 2})
	pe.AddConfig(4, fabric.RouterConfig{Accept: mesh.North, Forward: mesh.Dirs(mesh.Ramp)})
	s.PE(mesh.Coord{X: 0, Y: 1}).AddConfig(4, fabric.RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	frame, err := s.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	header := func(fields ...uint64) []byte {
		out := []byte{fabric.SpecCodecVersion}
		for _, v := range fields {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	f.Add(header(1<<20, 1<<20, 1<<40))                                                   // PE count
	f.Add(header(1<<20, 1<<20, 0))                                                       // grid
	f.Add(header(1<<62, 1<<62, 0))                                                       // grid, overflowing
	f.Add(append(header(1, 1, 1), 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0))          // op count
	f.Add(append(header(1, 1, 1), 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0))          // color count
	f.Add(append(header(1, 1, 1), 0, 0, 0, 0, 1, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0))    // config count
	f.Add(append(header(1, 1, 1), 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0, 0, 0, 0)) // init length

	f.Fuzz(func(t *testing.T, data []byte) {
		var s fabric.Spec
		var err error
		grew := allocBytes(func() { err = s.UnmarshalBinary(data) })
		if limit := uint64(64*len(data) + 64<<10); grew > limit {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted frame is not canonical:\n   in %x\n out %x", data, again)
		}
	})
}

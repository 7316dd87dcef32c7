package fabric_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/plan"
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
// on its own) plus, for an accepted frame, the 4-byte placement entry of
// each cell of its region, and whatever it accepts re-encodes to the very
// same bytes. Seeds are the programs of the per-kind golden plans (version-5
// frames), a spec with a binding and clock slots, the programs of a few
// larger shapes, frames whose counts (of cells, programs, ops, colors,
// configs and runs) claim far more than their bytes hold, and frames that
// list their programs or lay out their runs out of canon.
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
	s.SetClockSlots(mesh.Coord{X: 1, Y: 1}, 1)
	s.SetOps(mesh.Coord{X: 1, Y: 1}, []fabric.Op{{Kind: fabric.OpSampleClock}, {Kind: fabric.OpSendRecvStore, Color: 3, OutColor: 4, N: 2, N2: 1, Off2: 1}})
	s.AddConfig(mesh.Coord{X: 1, Y: 1}, 4, fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West), Times: 2})
	s.AddConfig(mesh.Coord{X: 1, Y: 1}, 4, fabric.RouterConfig{Accept: mesh.North, Forward: mesh.Dirs(mesh.Ramp)})
	s.AddConfig(mesh.Coord{X: 0, Y: 1}, 4, fabric.RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	frame, err := s.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	// The spec sections of larger programs, where many PEs share a program.
	for _, req := range []plan.Request{
		{Kind: plan.Reduce1D, Alg: core.Auto, P: 64, B: 4},
		{Kind: plan.AllReduce1D, Alg: core.Auto, P: 32, B: 4},
		{Kind: plan.Reduce2D, Alg2D: core.Auto2D, Width: 8, Height: 8, B: 4},
		{Kind: plan.AllReduce2D, Alg2D: core.Auto2D, Width: 8, Height: 8, B: 4},
		{Kind: plan.Broadcast2D, Width: 8, Height: 8, B: 4},
	} {
		pl, err := plan.Compile(req)
		if err != nil {
			f.Fatal(err)
		}
		frame, err := pl.Spec.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	header := func(fields ...uint64) []byte {
		out := []byte{fabric.SpecCodecVersion}
		for _, v := range fields {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// A program of one color passed to the ramp; a placement of runs, each
	// an index (0 unprogrammed, k+1 program k) and a cell count.
	prog := func(color byte) []byte {
		return []byte{0, 1, color, 1, byte(mesh.West), byte(mesh.Dirs(mesh.Ramp)), 0, 0}
	}
	runs := func(rs ...uint64) []byte {
		out := binary.AppendUvarint(nil, uint64(len(rs)/2))
		for _, v := range rs {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	f.Add(cat(header(1<<10, 1<<10, 0), runs(0, 1<<20)))                      // the largest region, unprogrammed
	f.Add(cat(header(1<<10, 1<<10, 1), prog(1), runs(1, 1<<20)))             // the largest region, one program
	f.Add(cat(header(1<<20, 1<<20, 0), runs(0, 1<<40)))                      // grid over the cells a frame holds
	f.Add(header(1<<62, 1<<62, 0))                                           // grid, overflowing
	f.Add(cat(header(1, 1, 1), big, []byte{0, 0}, runs(1, 1)))               // op count
	f.Add(cat(header(1, 1, 1), []byte{0}, big, []byte{0}, runs(1, 1)))       // color count
	f.Add(cat(header(1, 1, 1), []byte{0, 1, 3}, big, []byte{0}, runs(1, 1))) // config count
	f.Add(cat(header(4, 1, 0), big))                                         // run count
	f.Add(cat(header(1<<10, 1<<10, 1<<20), runs(1, 1<<20)))                  // programs, with as many cells
	f.Add(header(4, 1, 1<<40))                                               // programs, beyond the cells
	f.Add(header(1, 1, 1<<62))                                               // programs, overflowing
	f.Add(cat(header(64, 1, 64), make([]byte, 4*64)))                        // programs, bytes for the runs alone
	f.Add(cat(header(2, 1, 2), prog(1), prog(1), runs(1, 1, 2, 1)))          // a program repeated
	f.Add(cat(header(2, 1, 2), prog(1), prog(2), runs(2, 1, 1, 1)))          // programs out of first-use order
	f.Add(cat(header(2, 1, 2), prog(1), prog(2), runs(1, 2)))                // a program unused
	f.Add(cat(header(3, 1, 1), prog(1), runs(1, 1, 1, 2)))                   // adjacent runs of one index
	f.Add(cat(header(3, 1, 1), prog(1), runs(1, 2, 0, 2)))                   // runs past the region
	f.Add(cat(header(3, 1, 1), prog(1), runs(1, 2)))                         // runs short of the region
	f.Add(cat(header(3, 1, 1), prog(1), runs(1, 1, 2, 2)))                   // an index past the programs

	f.Fuzz(func(t *testing.T, data []byte) {
		var s fabric.Spec
		var err error
		grew := allocBytes(func() { err = s.UnmarshalBinary(data) })
		limit := uint64(64*len(data) + 64<<10)
		if err == nil {
			limit += 4 * uint64(s.Width*s.Height)
		}
		if grew > limit {
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

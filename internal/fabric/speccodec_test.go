package fabric

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bincodec"
	"repro/internal/mesh"
)

// codecSpec builds a small spec exercising every encoded field: all op
// scalar fields, multi-color multi-config routers, clock slots, and an
// unprogrammed cell between programmed ones. Its binding on PE (0,0) is the
// builder's, which a frame does not carry.
func codecSpec() *Spec {
	s := NewSpec(3, 2)
	a := s.PE(mesh.Coord{X: 0, Y: 0})
	a.Init = []float32{1.5, -2.25, 3.125}
	s.SetOps(mesh.Coord{X: 0, Y: 0}, []Op{
		{Kind: OpSend, Color: 2, N: 3},
		{Kind: OpSendRecvReduce, Color: 1, OutColor: 2, N: 2, Off: 1, N2: 2, Off2: 0, Reduce: OpMax},
		{Kind: OpSampleClock, Slot: 1},
	})
	s.SetClockSlots(mesh.Coord{X: 0, Y: 0}, 2)
	s.AddConfig(mesh.Coord{X: 0, Y: 0}, 2, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East), Times: 1})
	s.AddConfig(mesh.Coord{X: 0, Y: 0}, 2, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	s.AddConfig(mesh.Coord{X: 0, Y: 0}, 1, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})

	s.PE(mesh.Coord{X: 1, Y: 0})
	s.SetOps(mesh.Coord{X: 1, Y: 0}, []Op{{Kind: OpRecvReduce, Color: 2, N: 3, Reduce: OpSum}})
	s.AddConfig(mesh.Coord{X: 1, Y: 0}, 2, RouterConfig{Accept: mesh.West, Forward: mesh.Dirs(mesh.Ramp, mesh.East)})
	s.AddConfig(mesh.Coord{X: 1, Y: 0}, 1, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})

	s.PE(mesh.Coord{X: 2, Y: 1})
	s.SetOps(mesh.Coord{X: 2, Y: 1}, []Op{{Kind: OpBusyWrite, N: 7}})
	return s
}

func TestSpecCodecRoundTrip(t *testing.T) {
	s := codecSpec()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encoding is not deterministic")
	}
	var got Spec
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Width != s.Width || got.Height != s.Height || got.Len() != s.Len() {
		t.Fatalf("decoded %dx%d with %d PEs, want %dx%d with %d",
			got.Width, got.Height, got.Len(), s.Width, s.Height, s.Len())
	}
	s.Each(func(coord mesh.Coord, p *Program) {
		d := got.At(coord)
		if d == nil {
			t.Fatalf("PE %v missing after decode", coord)
		}
		if !reflect.DeepEqual(p.Ops, d.Ops) || p.ClockSlots != d.ClockSlots || !reflect.DeepEqual(p.Configs, d.Configs) {
			t.Fatalf("PE %v decoded differently:\n got %+v\nwant %+v", coord, d, p)
		}
	})
	if got.binds != nil {
		t.Fatal("a decoded spec binds initial vectors")
	}
	// The canonical form is a fixed point: re-encoding the decoded spec
	// reproduces the bytes.
	redata, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, redata) {
		t.Fatal("decode→encode is not byte-identical")
	}
}

func TestSpecCodecRejectsCorruption(t *testing.T) {
	data, err := codecSpec().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Unknown version byte.
	bad := append([]byte(nil), data...)
	bad[0] = 99
	var s Spec
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Fatal("version 99 accepted")
	}
	// Truncation at every prefix length must error, not panic.
	for n := 0; n < len(data); n++ {
		var s Spec
		if err := s.UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage is rejected.
	var s2 Spec
	if err := s2.UnmarshalBinary(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// frameRun is one run of a hand-built frame's placement: an index (0
// unprogrammed, k+1 program k) and the cells it covers.
type frameRun struct{ index, cells int }

// handFrame encodes the programs and runs exactly as listed, in the frame
// layout of MarshalBinary but without its guarantees, so tests can build the
// frames the encoder never emits. A program is the colors of its routing
// table, each with a single pass-to-ramp configuration, and no ops.
func handFrame(width, height int, progs [][]mesh.Color, runs ...frameRun) []byte {
	e := &bincodec.Encoder{}
	e.Byte(SpecCodecVersion)
	e.Uvarint(uint64(width))
	e.Uvarint(uint64(height))
	e.Uvarint(uint64(len(progs)))
	for _, colors := range progs {
		e.Uvarint(0) // ops
		e.Uvarint(uint64(len(colors)))
		for _, c := range colors {
			e.Byte(byte(c))
			e.Uvarint(1)
			e.Byte(byte(mesh.West))
			e.Byte(byte(mesh.Dirs(mesh.Ramp)))
			e.Varint(0)
		}
		e.Varint(0) // clock slots
	}
	e.Uvarint(uint64(len(runs)))
	for _, r := range runs {
		e.Uvarint(uint64(r.index))
		e.Uvarint(uint64(r.cells))
	}
	return e.Buf
}

// TestSpecCodecRejectsNonCanonicalFrames: the decoder accepts exactly the
// frames the encoder emits. A repeated or descending color and a padded
// integer used to decode (merged, overwritten or normalised); each is a
// decode error. So is every way of listing programs the encoder does not:
// one program twice, a program used before the one listed ahead of it, a
// program no PE runs, a program index past the count, and a program count
// the cells or the bytes cannot hold; and every placement it does not write:
// runs that overrun or fall short of the region, an empty run, two adjacent
// runs of one index, a run count the bytes cannot hold, and a region over
// the cells a frame may describe.
func TestSpecCodecRejectsNonCanonicalFrames(t *testing.T) {
	canonical := handFrame(2, 2, [][]mesh.Color{{1, 4}, nil, {0}},
		frameRun{1, 1}, frameRun{2, 1}, frameRun{3, 1}, frameRun{0, 1})
	var s Spec
	if err := s.UnmarshalBinary(canonical); err != nil {
		t.Fatalf("canonical hand-built frame refused: %v", err)
	}
	if again, _ := s.MarshalBinary(); !bytes.Equal(again, canonical) {
		t.Fatal("canonical hand-built frame does not re-encode to itself")
	}
	if s.Len() != 3 || s.At(mesh.Coord{X: 1, Y: 1}) != nil || len(s.At(mesh.Coord{}).ConfigsFor(4)) != 1 {
		t.Fatalf("canonical frame decoded wrongly: %d PEs", s.Len())
	}

	padded := append([]byte(nil), canonical...)
	padded = append(padded[:1], append([]byte{0x82, 0x00}, padded[2:]...)...) // width 2 as a two-byte varint
	// 512 programs on a 512-cell row, with the bytes for one run alone.
	overBytes := append([]byte{SpecCodecVersion, 0x80, 0x04, 1, 0x80, 0x04}, make([]byte, minRunBytes)...)
	// A 2048x1024 region, over the cells a frame may describe, in one run.
	overCells := handFrame(2048, 1024, nil, frameRun{0, 2048 * 1024})
	// A run count the bytes cannot hold.
	overRuns := []byte{SpecCodecVersion, 2, 1, 0, 0x80, 0x04}
	one := [][]mesh.Color{nil}
	for _, c := range []struct {
		name, want string
		frame      []byte
	}{
		{"repeated color", "out of ascending order", handFrame(1, 1, [][]mesh.Color{{3, 3}}, frameRun{1, 1})},
		{"colors descending", "out of ascending order", handFrame(1, 1, [][]mesh.Color{{5, 2}}, frameRun{1, 1})},
		{"padded varint", "truncated", padded},
		{"repeated program", "program 1 repeats program 0", handFrame(2, 1, [][]mesh.Color{{1}, {1}}, frameRun{1, 1}, frameRun{2, 1})},
		{"program out of first-use order", "run 0 runs program 1, the next unused is 0", handFrame(2, 1, [][]mesh.Color{{1}, {2}}, frameRun{2, 1}, frameRun{1, 1})},
		{"unused program", "1 of 2 programs run on no PE", handFrame(2, 1, [][]mesh.Color{{1}, {2}}, frameRun{1, 2})},
		{"program index past the count", "run 1 runs program 1, the next unused is 1 of 1", handFrame(2, 1, one, frameRun{1, 1}, frameRun{2, 1})},
		{"more programs than cells", "2 programs on 1x1 grid", handFrame(1, 1, [][]mesh.Color{{1}, {2}}, frameRun{1, 1})},
		{"program count over the bytes", "512 programs on 512x1 grid", overBytes},
		{"runs overrun the region", "run 1 of 2 cells at cell 1 of 2", handFrame(2, 1, one, frameRun{1, 1}, frameRun{0, 2})},
		{"runs fall short of the region", "the runs cover 3 of 4 cells", handFrame(2, 2, one, frameRun{1, 2}, frameRun{0, 1})},
		{"empty run", "run 1 of 0 cells", handFrame(2, 1, one, frameRun{1, 2}, frameRun{0, 0})},
		{"adjacent runs of one index", "run 1 repeats index 1", handFrame(2, 1, one, frameRun{1, 1}, frameRun{1, 1})},
		{"adjacent unprogrammed runs", "run 2 repeats index 0", handFrame(3, 1, one, frameRun{1, 1}, frameRun{0, 1}, frameRun{0, 1})},
		{"no runs", "0 runs", append(handFrame(2, 1, nil), 0, 0)},
		{"run count over the bytes", "512 runs in 0 bytes", overRuns},
		{"region over the cells a frame holds", "at most 1048576 cells", overCells},
	} {
		var s Spec
		if err := s.UnmarshalBinary(c.frame); err == nil {
			t.Errorf("%s: frame accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: refused with %q, want it to say %q", c.name, err, c.want)
		}
	}
}

// TestValidateChecksEveryPEOfASharedProgram: the PEs of a decoded program
// share its routing table, but where each PE's routes lead is its own — a PE
// whose link leads off the grid or to an unprogrammed PE is refused though
// another PE of its program is sound.
func TestValidateChecksEveryPEOfASharedProgram(t *testing.T) {
	for _, c := range []struct {
		width int
		want  string
	}{
		{2, "PE (1,0) color 1 config 0 forwards east off-grid"},
		{3, "PE (1,0) color 1 config 0 forwards east to unprogrammed PE (2,0)"},
	} {
		s := NewSpec(c.width, 1)
		for x := 0; x < 2; x++ {
			s.AddConfig(mesh.Coord{X: x}, 1, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East)})
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Spec
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if a, b := got.At(mesh.Coord{X: 0}), got.At(mesh.Coord{X: 1}); &a.Configs[0] != &b.Configs[0] {
			t.Fatal("the two PEs of one program do not share it")
		}
		for _, spec := range []*Spec{s, &got} {
			if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%dx1 grid: Validate says %v, want %q", c.width, err, c.want)
			}
		}
	}
}

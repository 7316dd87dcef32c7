package fabric

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mesh"
)

// codecSpec builds a small spec exercising every encoded field: init
// vectors, all op scalar fields, multi-color multi-config routers, and
// clock slots.
func codecSpec() *Spec {
	s := NewSpec(3, 2)
	a := s.PE(mesh.Coord{X: 0, Y: 0})
	a.Init = []float32{1.5, -2.25, 3.125}
	a.Ops = []Op{
		{Kind: OpSend, Color: 2, N: 3},
		{Kind: OpSendRecvReduce, Color: 1, OutColor: 2, N: 2, Off: 1, N2: 2, Off2: 0, Reduce: OpMax},
		{Kind: OpSampleClock, Slot: 1},
	}
	a.ClockSlots = 2
	a.AddConfig(2, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East), Times: 1})
	a.AddConfig(2, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	a.AddConfig(1, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})

	b := s.PE(mesh.Coord{X: 1, Y: 0})
	b.Ops = []Op{{Kind: OpRecvReduce, Color: 2, N: 3, Reduce: OpSum}}
	b.AddConfig(2, RouterConfig{Accept: mesh.West, Forward: mesh.Dirs(mesh.Ramp, mesh.East)})
	b.AddConfig(1, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})

	c := s.PE(mesh.Coord{X: 2, Y: 1})
	c.Ops = []Op{{Kind: OpBusyWrite, N: 7}}
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
	s.Each(func(coord mesh.Coord, pe *PESpec) {
		d := got.At(coord)
		if d == nil {
			t.Fatalf("PE %v missing after decode", coord)
		}
		if !reflect.DeepEqual(pe.Init, d.Init) || !reflect.DeepEqual(pe.Ops, d.Ops) ||
			pe.ClockSlots != d.ClockSlots || !reflect.DeepEqual(pe.Configs, d.Configs) {
			t.Fatalf("PE %v decoded differently:\n got %+v\nwant %+v", coord, d, pe)
		}
	})
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

// framePE is one PE record of a hand-built frame: a coordinate and the
// index of the program it runs.
type framePE struct{ x, y, prog int }

// handFrame encodes the programs and PEs exactly as listed, in the frame
// layout of MarshalBinary but without its guarantees, so tests can build the
// frames the encoder never emits. A program is the colors of its routing
// table, each with a single pass-to-ramp configuration, and no ops.
func handFrame(width, height int, progs [][]mesh.Color, pes ...framePE) []byte {
	e := &wireEnc{}
	e.byte(SpecCodecVersion)
	e.uvarint(uint64(width))
	e.uvarint(uint64(height))
	e.uvarint(uint64(len(pes)))
	e.uvarint(uint64(len(progs)))
	for _, colors := range progs {
		e.uvarint(0) // ops
		e.uvarint(uint64(len(colors)))
		for _, c := range colors {
			e.byte(byte(c))
			e.uvarint(1)
			e.byte(byte(mesh.West))
			e.byte(byte(mesh.Dirs(mesh.Ramp)))
			e.varint(0)
		}
		e.varint(0) // clock slots
	}
	for _, pe := range pes {
		e.varint(int64(pe.x))
		e.varint(int64(pe.y))
		e.uvarint(uint64(pe.prog))
		e.uvarint(0) // init
	}
	return e.buf
}

// TestSpecCodecRejectsNonCanonicalFrames: the decoder accepts exactly the
// frames the encoder emits. A repeated or out-of-order PE coordinate, a
// repeated or descending color and a padded integer all used to decode
// (merged, overwritten or normalised); each is a decode error. So is every
// way of listing programs the encoder does not: one program twice, a program
// used before the one listed ahead of it, a program no PE runs, and a program
// count the PEs or the bytes cannot hold.
func TestSpecCodecRejectsNonCanonicalFrames(t *testing.T) {
	canonical := handFrame(2, 2, [][]mesh.Color{{1, 4}, nil, {0}},
		framePE{0, 0, 0}, framePE{1, 0, 1}, framePE{0, 1, 2})
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
	// 512 PEs of 512 programs, with the bytes for the PE records alone.
	overBytes := append([]byte{SpecCodecVersion, 0x80, 0x04, 1, 0x80, 0x04, 0x80, 0x04}, make([]byte, 512*minPEBytes)...)
	one := [][]mesh.Color{nil}
	for _, c := range []struct {
		name, want string
		frame      []byte
	}{
		{"repeated PE", "out of row-major order", handFrame(2, 2, one, framePE{0, 0, 0}, framePE{0, 0, 0})},
		{"PEs in column order", "out of row-major order", handFrame(2, 2, one, framePE{0, 0, 0}, framePE{0, 1, 0}, framePE{1, 0, 0})},
		{"PEs descending", "out of row-major order", handFrame(2, 1, one, framePE{1, 0, 0}, framePE{0, 0, 0})},
		{"repeated color", "out of ascending order", handFrame(1, 1, [][]mesh.Color{{3, 3}}, framePE{0, 0, 0})},
		{"colors descending", "out of ascending order", handFrame(1, 1, [][]mesh.Color{{5, 2}}, framePE{0, 0, 0})},
		{"padded varint", "truncated", padded},
		{"repeated program", "program 1 repeats program 0", handFrame(2, 1, [][]mesh.Color{{1}, {1}}, framePE{0, 0, 0}, framePE{1, 0, 1})},
		{"program out of first-use order", "runs program 1, the next unused is 0", handFrame(2, 1, [][]mesh.Color{{1}, {2}}, framePE{0, 0, 1}, framePE{1, 0, 0})},
		{"unused program", "1 of 2 programs run on no PE", handFrame(2, 1, [][]mesh.Color{{1}, {2}}, framePE{0, 0, 0}, framePE{1, 0, 0})},
		{"program index past the count", "runs program 1, the next unused is 1 of 1", handFrame(2, 1, [][]mesh.Color{{1}}, framePE{0, 0, 0}, framePE{1, 0, 1})},
		{"more programs than PEs", "1 PEs of 2 programs", handFrame(2, 1, [][]mesh.Color{{1}, {2}}, framePE{0, 0, 0})},
		{"program count over the bytes", "512 PEs of 512 programs", overBytes},
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
			s.PE(mesh.Coord{X: x}).AddConfig(1, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East)})
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

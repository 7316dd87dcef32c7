package fabric

import (
	"bytes"
	"reflect"
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

// framePE is one PE of a hand-built frame: a coordinate and the colors of
// its routing table, each with a single pass-to-ramp configuration.
type framePE struct {
	x, y   int
	colors []mesh.Color
}

// handFrame encodes the PEs exactly as listed, in the frame layout of
// MarshalBinary but without its guarantees, so tests can build the frames
// the encoder never emits.
func handFrame(width, height int, pes ...framePE) []byte {
	e := &wireEnc{}
	e.byte(SpecCodecVersion)
	e.uvarint(uint64(width))
	e.uvarint(uint64(height))
	e.uvarint(uint64(len(pes)))
	for _, pe := range pes {
		e.varint(int64(pe.x))
		e.varint(int64(pe.y))
		e.uvarint(0) // init
		e.uvarint(0) // ops
		e.uvarint(uint64(len(pe.colors)))
		for _, c := range pe.colors {
			e.byte(byte(c))
			e.uvarint(1)
			e.byte(byte(mesh.West))
			e.byte(byte(mesh.Dirs(mesh.Ramp)))
			e.varint(0)
		}
		e.varint(0) // clock slots
	}
	return e.buf
}

// TestSpecCodecRejectsNonCanonicalFrames: the decoder accepts exactly the
// frames the encoder emits. A repeated or out-of-order PE coordinate, a
// repeated or descending color and a padded integer all used to decode
// (merged, overwritten or normalised); each is now a decode error.
func TestSpecCodecRejectsNonCanonicalFrames(t *testing.T) {
	canonical := handFrame(2, 2,
		framePE{0, 0, []mesh.Color{1, 4}}, framePE{1, 0, nil}, framePE{0, 1, []mesh.Color{0}})
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
	for name, frame := range map[string][]byte{
		"repeated PE":         handFrame(2, 2, framePE{0, 0, nil}, framePE{0, 0, nil}),
		"PEs in column order": handFrame(2, 2, framePE{0, 0, nil}, framePE{0, 1, nil}, framePE{1, 0, nil}),
		"PEs descending":      handFrame(2, 1, framePE{1, 0, nil}, framePE{0, 0, nil}),
		"repeated color":      handFrame(1, 1, framePE{0, 0, []mesh.Color{3, 3}}),
		"colors descending":   handFrame(1, 1, framePE{0, 0, []mesh.Color{5, 2}}),
		"padded varint":       padded,
	} {
		var s Spec
		if err := s.UnmarshalBinary(frame); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
	}
}

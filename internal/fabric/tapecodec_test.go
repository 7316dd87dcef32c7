package fabric

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/mesh"
)

// tapeCodecSpec is a two-PE row: PE (1,0) sends its two elements west,
// PE (0,0) folds them into its own by max and samples its clock.
func tapeCodecSpec(t *testing.T) *Spec {
	t.Helper()
	s := NewSpec(2, 1)
	a := s.PE(mesh.Coord{X: 0, Y: 0})
	a.Init = []float32{1.5, -2.25}
	a.Ops = []Op{{Kind: OpRecvReduce, Color: 0, N: 2, Reduce: OpMax}, {Kind: OpSampleClock, Slot: 0}}
	a.ClockSlots = 1
	a.AddConfig(0, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	b := s.PE(mesh.Coord{X: 1, Y: 0})
	b.Init = []float32{3.125, -4}
	b.Ops = []Op{{Kind: OpSend, Color: 0, N: 2}}
	b.AddConfig(0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// handEvent is one event of a hand-built tape section, field by field as
// the section spells it.
type handEvent struct {
	where uint64 // 0: the PE of the event before; else 1 + zigzag(PE - guessed PE)
	kind  uint64
	elem  uint64 // 0: the guessed element, nothing written; else zigzag(element - guess)
	wave  uint64 // zigzag(wave - guess), written for every kind but a load
}

// handTape is a tape section written out by hand, in the layout of
// Tape.AppendBinary but without its guarantees, so tests can build the
// sections the encoder never emits.
type handTape struct {
	cycles   uint64
	stats    [6]uint64
	accLens  []uint64
	clocks   []int64
	events   []handEvent
	nClocks  *uint64 // written in place of len(clocks)
	nEvents  *uint64 // written in place of len(events)
	trailing []byte
}

func (h handTape) bytes() []byte {
	e := &wireEnc{}
	e.uvarint(h.cycles)
	for _, v := range h.stats {
		e.uvarint(v)
	}
	for _, n := range h.accLens {
		e.uvarint(n)
	}
	if h.nClocks != nil {
		e.uvarint(*h.nClocks)
	} else {
		e.uvarint(uint64(len(h.clocks)))
	}
	for _, v := range h.clocks {
		e.varint(v)
	}
	if h.nEvents != nil {
		e.uvarint(*h.nEvents)
	} else {
		e.uvarint(uint64(len(h.events)))
	}
	for _, ev := range h.events {
		head := ev.where<<tapeWhereShift | ev.kind
		if ev.elem != 0 {
			head |= tapeExplicitElem
		}
		e.uvarint(head)
		if ev.elem != 0 {
			e.uvarint(ev.elem)
		}
		if ev.kind != uint64(tapeLoad) {
			e.uvarint(ev.wave)
		}
	}
	return append(e.buf, h.trailing...)
}

// goodHandTape is the section of tapeCodecSpec's recording, by hand: PE 1
// loads its two elements (waves 0 and 1), then PE 0 folds them in by max.
func goodHandTape() handTape {
	maxKind := uint64(tapeReduce) + uint64(OpMax)
	return handTape{
		cycles:  9,
		stats:   [6]uint64{3, 6, 2, 2, 0, 22},
		accLens: []uint64{2, 2},
		clocks:  []int64{8},
		events: []handEvent{
			{where: 1 + zigzag(1), kind: uint64(tapeLoad)}, // PE 0 is guessed to follow itself: +1
			{kind: uint64(tapeLoad)},
			{where: 1 + zigzag(-1), kind: maxKind}, // PE 1 likewise: -1
			{kind: maxKind},
		},
	}
}

// TestTapeCodecRoundTrip: the section of a recorded tape is the one written
// out by hand above, decodes to a tape that replays like the recorded one,
// and re-encodes to itself.
func TestTapeCodecRoundTrip(t *testing.T) {
	s := tapeCodecSpec(t)
	f, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := f.Record()
	if err != nil {
		t.Fatal(err)
	}
	section := recorded.AppendBinary(nil)
	if want := goodHandTape().bytes(); !bytes.Equal(section, want) {
		t.Fatalf("recorded tape encodes to\n  % x\nthe hand-built section is\n  % x", section, want)
	}
	decoded, err := DecodeTape(s, section)
	if err != nil {
		t.Fatal(err)
	}
	if again := decoded.AppendBinary(nil); !bytes.Equal(again, section) {
		t.Fatalf("decode→encode is not byte-identical:\n  % x\n  % x", section, again)
	}
	image := func() []float32 { return []float32{1.5, -2.25, 3.125, -4} }
	want, got := recorded.Run(image()), decoded.Run(image())
	if got.Cycles != want.Cycles || got.Stats != want.Stats {
		t.Fatalf("decoded tape reports %d cycles %+v, recorded %d %+v", got.Cycles, got.Stats, want.Cycles, want.Stats)
	}
	root := mesh.Coord{}
	if g, w := got.Acc[root], want.Acc[root]; len(g) != 2 || g[0] != 3.125 || g[1] != -2.25 || g[0] != w[0] || g[1] != w[1] {
		t.Fatalf("decoded tape leaves %v at the root, recorded %v", g, w)
	}
	if g, w := got.Clocks[root], want.Clocks[root]; len(g) != 1 || len(w) != 1 || g[0] != w[0] {
		t.Fatalf("decoded tape reports clocks %v, recorded %v", g, w)
	}
}

// TestTapeCodecRejectsHostileSections: the decoder trusts nothing the Spec
// decides and range-checks all the section decides. Each hand-built section
// differs from the good one in one respect and is one decode error.
func TestTapeCodecRejectsHostileSections(t *testing.T) {
	s := tapeCodecSpec(t)
	if _, err := DecodeTape(s, goodHandTape().bytes()); err != nil {
		t.Fatalf("good hand-built section refused: %v", err)
	}
	u := func(v uint64) *uint64 { return &v }
	edit := func(f func(*handTape)) []byte {
		h := goodHandTape()
		f(&h)
		return h.bytes()
	}
	good := goodHandTape().bytes()
	padded := append([]byte{0x89, 0x00}, good[1:]...) // cycles 9 as a two-byte varint
	overCap := binary.AppendUvarint(nil, MaxTapeEvents+1)
	for _, c := range []struct {
		name, want string
		section    []byte
	}{
		{"acc index past its PE", "element 2 of PE",
			edit(func(h *handTape) { h.events[1].elem = zigzag(1) })},
		{"acc index before its PE", "element -1 of PE",
			edit(func(h *handTape) { h.events[0].elem = zigzag(-1) })},
		{"wave consumed before its load", "consumes wave 0, 0 loaded so far",
			edit(func(h *handTape) { // PE 0 folds first, PE 1 loads after
				h.events = []handEvent{{kind: h.events[3].kind}, h.events[0], h.events[1], h.events[2]}
			})},
		{"wave id past the waves", "consumes wave 2, 2 loaded so far",
			edit(func(h *handTape) { h.events[3].wave = zigzag(1) })},
		{"negative wave id", "consumes wave -1",
			edit(func(h *handTape) { h.events[2].wave = zigzag(-1) })},
		{"unknown reduce kind", "kind 5",
			edit(func(h *handTape) { h.events[3].kind = uint64(tapeReduce) + uint64(OpMin) + 1 })},
		{"PE past the program", "PE index 2 of 2",
			edit(func(h *handTape) { h.events[0].where = 1 + zigzag(2) })},
		{"same PE spelled as a move", "PE index 0 of 2 after 0",
			edit(func(h *handTape) { h.events[0].where = 1 + zigzag(0) })},
		{"event count over the cap", "2097153 events in",
			edit(func(h *handTape) { h.nEvents = u(MaxTapeEvents + 1); h.trailing = bytes.Repeat(overCap, 1<<20) })},
		{"event count over the bytes left", "1000 events in",
			edit(func(h *handTape) { h.nEvents = u(1000) })},
		{"event count not the program's", "5 events, the program leaves 4",
			edit(func(h *handTape) { h.events = append(h.events, h.events[3]) })},
		{"accumulator shorter than the ops address", "accumulator of 1 elements, its program addresses 2",
			edit(func(h *handTape) { h.accLens[0] = 1 })},
		{"clock count not the program's slots", "2 clock samples, the program has 1",
			edit(func(h *handTape) { h.clocks = []int64{8, 8} })},
		{"clock samples truncated", "truncated",
			edit(func(h *handTape) { h.clocks, h.nClocks, h.events = nil, u(1), nil })},
		{"non-shortest varint", "truncated", padded},
		{"explicit element spelling the guess", "element code 0",
			append(append([]byte(nil), good[:len(good)-6]...), 0x30|tapeExplicitElem, 0x00, 0x00, 0x23, 0x00, 0x03, 0x00)},
		{"trailing bytes", "1 trailing bytes",
			edit(func(h *handTape) { h.trailing = []byte{0} })},
		{"empty section", "truncated", nil},
	} {
		_, err := DecodeTape(s, c.section)
		if err == nil {
			t.Errorf("%s: section accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: refused with %q, want it to say %q", c.name, err, c.want)
		}
	}
	// Truncation at every prefix length is an error, never a panic.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeTape(s, good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

package fabric

import (
	"bytes"
	"math"
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

// handRun is one run of a hand-built tape section, field by field as the
// section spells it.
type handRun struct {
	kind, n uint64
	acc     int64 // its first element, from where the run before ended
	wave    int64 // its first wave, from where the consume before ended; written for every kind but a load
}

// handTape is a tape section written out by hand, in the layout of
// Tape.AppendBinary but without its guarantees, so tests can build the
// sections the encoder never emits.
type handTape struct {
	cycles   uint64
	stats    [6]uint64
	accLens  []uint64
	clocks   []int64
	runs     []handRun
	nClocks  *uint64 // written in place of len(clocks)
	nRuns    *uint64 // written in place of len(runs)
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
	if h.nRuns != nil {
		e.uvarint(*h.nRuns)
	} else {
		e.uvarint(uint64(len(h.runs)))
	}
	for _, r := range h.runs {
		e.uvarint(r.n<<tapeKindBits | r.kind)
		e.varint(r.acc)
		if r.kind != uint64(tapeLoad) {
			e.varint(r.wave)
		}
	}
	return append(e.buf, h.trailing...)
}

var maxKind = uint64(tapeReduce) + uint64(OpMax)

// goodHandTape is the section of tapeCodecSpec's recording, by hand: PE 1
// loads its two elements (image 2 and 3, waves 0 and 1) in one run, then
// PE 0 folds them into its own (image 0 and 1) by max in another.
func goodHandTape() handTape {
	return handTape{
		cycles:  9,
		stats:   [6]uint64{3, 6, 2, 2, 0, 22},
		accLens: []uint64{2, 2},
		clocks:  []int64{8},
		runs: []handRun{
			{kind: uint64(tapeLoad), n: 2, acc: 2},
			{kind: maxKind, n: 2, acc: -4},
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
	if decoded.Events() != 4 || decoded.Runs() != 2 || recorded.Events() != 4 || recorded.Runs() != 2 {
		t.Fatalf("decoded tape holds %d events in %d runs, recorded %d in %d; want 4 in 2",
			decoded.Events(), decoded.Runs(), recorded.Events(), recorded.Runs())
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
	// The same four events as runs of one are as good a tape, and the split
	// is kept: decode→encode is the identity on it too.
	split := edit(func(h *handTape) {
		h.runs = []handRun{
			{kind: uint64(tapeLoad), n: 1, acc: 2}, {kind: uint64(tapeLoad), n: 1},
			{kind: maxKind, n: 1, acc: -4}, {kind: maxKind, n: 1},
		}
	})
	if tape, err := DecodeTape(s, split); err != nil || tape.Runs() != 4 || !bytes.Equal(tape.AppendBinary(nil), split) {
		t.Fatalf("the good section split into runs of one: %v", err)
	}
	for _, c := range []struct {
		name, want string
		section    []byte
	}{
		{"empty run", "kind 0, 0 elements",
			edit(func(h *handTape) { h.runs[0].n = 0 })},
		{"run past the image end", "elements 3 to 5 of an image of 4",
			edit(func(h *handTape) { h.runs[0].acc = 3 })},
		{"run before the image", "elements -1 to 1 of an image of 4",
			edit(func(h *handTape) { h.runs[0].acc = -1 })},
		{"element delta wider than any image", "elements",
			edit(func(h *handTape) { h.runs[1].acc = math.MinInt64 })},
		{"waves consumed before their load", "consumes waves 0 to 2, 0 loaded so far",
			edit(func(h *handTape) { // PE 0 folds first, PE 1 loads after
				h.runs = []handRun{{kind: maxKind, n: 2}, {kind: uint64(tapeLoad), n: 2}}
			})},
		{"consume running past the waves", "consumes waves 1 to 3, 2 loaded so far",
			edit(func(h *handTape) { h.runs[1].wave = 1 })},
		{"consume past the waves loaded so far", "consumes waves 1 to 2, 1 loaded so far",
			edit(func(h *handTape) { // load one, fold the next one, load it after
				h.runs = []handRun{
					{kind: uint64(tapeLoad), n: 1, acc: 2}, {kind: maxKind, n: 1, acc: -3, wave: 1},
					{kind: uint64(tapeLoad), n: 1, acc: 2}, {kind: maxKind, n: 1, acc: -3, wave: -2},
				}
			})},
		{"negative wave id", "consumes waves -1 to 1",
			edit(func(h *handTape) { h.runs[1].wave = -1 })},
		{"unknown reduce kind", "kind 5",
			edit(func(h *handTape) { h.runs[1].kind = uint64(tapeKinds) })},
		{"run count over the program's events", "5 runs in",
			edit(func(h *handTape) { h.nRuns = u(5); h.trailing = make([]byte, 64) })},
		{"run count over the bytes left", "3 runs in 5 bytes",
			edit(func(h *handTape) { h.nRuns = u(3) })},
		{"runs moving more than the program", "kind 3, 2 elements of the 0 left",
			edit(func(h *handTape) { h.runs = append(h.runs, handRun{kind: maxKind, n: 2, acc: -2, wave: -2}) })},
		{"runs moving less than the program", "the runs move 3 elements, the program leaves 4",
			edit(func(h *handTape) { h.runs[1].n = 1 })},
		{"accumulator shorter than the ops address", "accumulator of 1 elements, its program addresses 2",
			edit(func(h *handTape) { h.accLens[0] = 1 })},
		{"clock count not the program's slots", "2 clock samples, the program has 1",
			edit(func(h *handTape) { h.clocks = []int64{8, 8} })},
		{"clock samples truncated", "truncated",
			edit(func(h *handTape) { h.clocks, h.nClocks, h.runs = nil, u(1), nil })},
		{"non-shortest varint", "truncated", padded},
		{"non-shortest element delta", "truncated",
			append(append([]byte(nil), good[:len(good)-2]...), 0x87, 0x00, 0x00)},
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

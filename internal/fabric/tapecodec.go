package fabric

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mesh"
)

// Binary codec for Tape: what lets a plan store hand a restarted process the
// answer of a simulation instead of the program to simulate again. A tape
// is only ever decoded next to the Spec it was recorded from, and the
// decoder takes from that Spec everything the Spec determines — the PE
// set and its order, the clock slots of every PE, the shortest accumulator
// the ops address, how many events the program leaves — so the section
// carries, and a hostile one can lie about, only what the run decided:
//
//	uvarint  cycles
//	uvarint  hops, ramp moves, max received, max queue length, no-ops, steps
//	uvarint  accumulator length          per PE, in the Spec's row-major order
//	uvarint  clock sample count          the sum of the PEs' ClockSlots
//	varint   clock sample                per slot, PE by PE
//	uvarint  event count
//	events
//
// In memory an event is 8 bytes; here it is one to three uvarints, nearly
// always one byte each, because each field is coded against a guess that is
// usually right (the PE's about four times in five on the benchmark's cold
// shapes, the other two nearly always). The engine steps the same processors in the same
// order cycle after cycle, so the PE of an event is guessed from which PE
// followed the previous event's PE the last time round. A processor's loads
// walk its accumulator one element at a time and so do its stores and
// reduces, so the element is guessed as one past the PE's last of that sort.
// Senders load in the order receivers consume a hop later, so a consumed
// wave is guessed as one past the wave consumed before it.
//
//	head     where<<4 | explicit<<3 | kind
//	         where 0: the previous event's PE; else the guessed PE plus
//	         unzigzag(where-1), which may not be the previous event's PE
//	element  zigzag(element - guess) != 0, present when explicit is set
//	wave     zigzag(wave - guess), present when the kind consumes one
//
// A load defines the next wave id (they count up from zero in tape order),
// so a wave is "loaded before it is consumed" exactly when its id is below
// the number of loads decoded so far; the walk reuses its wave buffer
// across runs uncleared and relies on that. Every varint is in its shortest
// form, every value has one spelling and is range-checked, so the decoder
// accepts exactly what the encoder emits and decode-then-encode is the
// identity.

// The event kinds on the wire are the tape's own: load, store, reduce + op.
const (
	tapeKindBits     = 3
	tapeKindMask     = 1<<tapeKindBits - 1
	tapeKinds        = tapeReduce + uint32(OpMin) + 1
	tapeExplicitElem = 1 << tapeKindBits
	tapeWhereShift   = tapeKindBits + 1
)

// tapeCoder is the guessing state both directions of the codec keep. PE
// indices fit an int32 and element cursors a uint32 (Record caps the flat
// image at MaxUint32 elements), which keeps the state at 12 bytes a PE.
type tapeCoder struct {
	pe   int64    // PE of the previous event
	wave int64    // wave consumed last
	next []int32  // per PE: the PE that followed it, the last time another did
	elem []uint32 // per PE: one past its last loaded element, then one past its last consumed
}

func newTapeCoder(pes int) tapeCoder {
	c := tapeCoder{wave: -1, next: make([]int32, pes), elem: make([]uint32, 2*pes)}
	for i := range c.next {
		c.next[i] = int32(i)
	}
	return c
}

// cursor is the index in c.elem of pe's cursor for an event of the kind.
func cursor(pe int64, kind uint32) int64 {
	if kind == tapeLoad {
		return 2 * pe
	}
	return 2*pe + 1
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendBinary appends the tape's binary section to buf.
func (t *Tape) AppendBinary(buf []byte) []byte {
	st := &t.stats
	for _, v := range [...]int64{t.cycles, st.Hops, st.RampMoves, st.MaxReceived, int64(st.MaxQueueLen), st.Noops, st.Steps} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	n := len(t.coords)
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, uint64(t.off[i+1]-t.off[i]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.clocks)))
	for _, v := range t.clocks {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.events)))
	// Which PE a flat index belongs to, as a table the size of one run's
	// accumulator image: a tape's PE changes with nearly every event.
	off := t.off
	owner := make([]int32, t.AccLen())
	for pe := 0; pe < n; pe++ {
		for k := off[pe]; k < off[pe+1]; k++ {
			owner[k] = int32(pe)
		}
	}
	c := newTapeCoder(n)
	for _, ev := range t.events {
		acc := int(ev.acc)
		pe, guess := int64(owner[acc]), int64(c.next[c.pe])
		kind, wave := ev.op>>tapeKindShift, int64(ev.op&tapeWaveMask)
		elem := int64(acc - off[pe])
		head := uint64(kind)
		if pe != c.pe {
			head |= (1 + zigzag(pe-guess)) << tapeWhereShift
			c.next[c.pe] = int32(pe)
			c.pe = pe
		}
		cur := &c.elem[cursor(pe, kind)]
		de := elem - int64(*cur)
		*cur = uint32(elem + 1)
		if de != 0 {
			buf = binary.AppendUvarint(buf, head|tapeExplicitElem)
			buf = binary.AppendUvarint(buf, zigzag(de))
		} else {
			buf = binary.AppendUvarint(buf, head)
		}
		if kind != tapeLoad {
			buf = binary.AppendUvarint(buf, zigzag(wave-c.wave-1))
			c.wave = wave
		}
	}
	return buf
}

// DecodeTape decodes the section AppendBinary wrote for a tape recorded from
// program s, which must be valid (Spec.Validate). data must hold the section
// and nothing else.
func DecodeTape(s *Spec, data []byte) (*Tape, error) {
	d := &wireDec{buf: data}
	count := func() int64 { // a counter or a length: non-negative in an int64
		v := d.uvarint()
		if v > math.MaxInt64 {
			d.fail()
			return 0
		}
		return int64(v)
	}
	n := s.Len()
	t := &Tape{
		cycles: count(),
		stats: Stats{Hops: count(), RampMoves: count(), MaxReceived: count(),
			MaxQueueLen: int(count()), Noops: count(), Steps: count()},
		coords: make([]mesh.Coord, 0, n),
		off:    make([]int, 0, n+1),
		clkOff: make([]int, 0, n+1),
	}
	if d.err != nil {
		return nil, fmt.Errorf("fabric: tape codec: %v", d.err)
	}

	total, clocks, events := 0, 0, 0
	for idx, pe := range s.pes {
		if pe == nil {
			continue
		}
		c := s.coord(idx)
		size := d.uvarint()
		if d.err != nil {
			return nil, fmt.Errorf("fabric: tape codec: PE %v: %v", c, d.err)
		}
		if need := pe.AccNeed(); size < uint64(need) || size > math.MaxUint32 || uint64(total)+size > math.MaxUint32 {
			return nil, fmt.Errorf("fabric: tape codec: PE %v accumulator of %d elements, its program addresses %d", c, size, need)
		}
		t.coords = append(t.coords, c)
		t.off = append(t.off, total)
		t.clkOff = append(t.clkOff, clocks)
		total += int(size)
		clocks += pe.ClockSlots
		for k := range pe.Ops {
			events += pe.Ops[k].tapeEvents()
		}
	}
	t.off = append(t.off, total)
	t.clkOff = append(t.clkOff, clocks)

	if got := d.uvarint(); d.err == nil && got != uint64(clocks) {
		return nil, fmt.Errorf("fabric: tape codec: %d clock samples, the program has %d slots", got, clocks)
	}
	if clocks > d.remaining() {
		return nil, fmt.Errorf("fabric: tape codec: clock samples truncated")
	}
	if clocks > 0 {
		t.clocks = make([]int64, clocks)
		for i := range t.clocks {
			t.clocks[i] = d.varint()
		}
	}
	ne := d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("fabric: tape codec: %v", d.err)
	}
	if ne > MaxTapeEvents || ne > uint64(d.remaining()) { // an event is a byte at least
		return nil, fmt.Errorf("fabric: tape codec: %d events in %d bytes (cap %d)", ne, d.remaining(), MaxTapeEvents)
	}
	if ne != uint64(events) {
		return nil, fmt.Errorf("fabric: tape codec: %d events, the program leaves %d", ne, events)
	}
	if err := t.decodeEvents(d, int(ne)); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("fabric: tape codec: %d trailing bytes", d.remaining())
	}
	return t, nil
}

// decodeEvents reads n events, holding each to the image t.off describes.
func (t *Tape) decodeEvents(d *wireDec, n int) error {
	// Indices and wave ids fit 32 bits, so no legal delta comes near this;
	// refusing wider ones up front keeps the sums below clear of overflow.
	const maxDelta = 1 << 34
	pes := int64(len(t.coords))
	c := newTapeCoder(int(pes))
	t.events = make([]tapeEvent, n)
	loads := int64(0)
	for i := range t.events {
		head := d.uvarint()
		kind, where := uint32(head&tapeKindMask), head>>tapeWhereShift
		if d.err != nil || kind >= tapeKinds || where > maxDelta {
			return d.eventErr(i, "kind %d, PE code %d", kind, where)
		}
		pe := c.pe
		if where != 0 {
			pe = int64(c.next[c.pe]) + unzigzag(where-1)
			if pe < 0 || pe >= pes || pe == c.pe {
				return d.eventErr(i, "PE index %d of %d after %d", pe, pes, c.pe)
			}
			c.next[c.pe] = int32(pe)
			c.pe = pe
		}
		cur := &c.elem[cursor(pe, kind)]
		elem := int64(*cur)
		if head&tapeExplicitElem != 0 {
			de := d.uvarint()
			if d.err != nil || de == 0 || de > maxDelta {
				return d.eventErr(i, "element code %d", de)
			}
			elem += unzigzag(de)
		}
		if size := int64(t.off[pe+1] - t.off[pe]); elem < 0 || elem >= size {
			return d.eventErr(i, "element %d of PE %v's %d", elem, t.coords[pe], size)
		}
		*cur = uint32(elem + 1)
		wave := loads
		if kind == tapeLoad {
			loads++
		} else {
			dw := d.uvarint()
			if d.err != nil || dw > maxDelta {
				return d.eventErr(i, "wave code %d", dw)
			}
			wave = c.wave + 1 + unzigzag(dw)
			if wave < 0 || wave >= loads {
				return d.eventErr(i, "consumes wave %d, %d loaded so far", wave, loads)
			}
			c.wave = wave
		}
		t.events[i] = tapeEvent{acc: uint32(int64(t.off[pe]) + elem), op: kind<<tapeKindShift | uint32(wave)}
	}
	t.waves = int(loads)
	return nil
}

// eventErr is the decode error of event i: the read failure when there was
// one, else what the format string says was out of range.
func (d *wireDec) eventErr(i int, format string, args ...any) error {
	if d.err != nil {
		return fmt.Errorf("fabric: tape codec: event %d: %v", i, d.err)
	}
	return fmt.Errorf("fabric: tape codec: event %d: "+format, append([]any{i}, args...)...)
}

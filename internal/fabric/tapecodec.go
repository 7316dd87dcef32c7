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
// the ops address, how many elements the program moves — so the section
// carries, and a hostile one can lie about, only what the run decided:
//
//	uvarint  cycles
//	uvarint  hops, ramp moves, max received, max queue length, no-ops, steps
//	uvarint  accumulator length          per PE, in the Spec's row-major order
//	uvarint  clock sample count          the sum of the PEs' ClockSlots
//	varint   clock sample                per slot, PE by PE
//	uvarint  run count
//	head     n<<3 | kind                 per run, then:
//	varint   its first element, from where the previous run ended
//	varint   its first wave, from where the previous consume ended (consumes only)
//
// A load run defines the next n wave ids (they count up from zero in tape
// order), so a wave is loaded before it is consumed exactly when its id is
// below the number the load runs decoded so far define; the walk reuses its
// wave buffer across runs uncleared and relies on that. The runs' lengths
// must add up to the events the Spec's ops leave, which bounds the work a
// decoded tape makes a walk do. Varints are in their shortest form and every
// value is range-checked, so decode-then-encode is the identity.

const tapeKindBits = 3 // head: the run's kind below its length

// AppendBinary appends the tape's binary section to buf.
func (t *Tape) AppendBinary(buf []byte) []byte {
	st := &t.stats
	for _, v := range [...]int64{t.cycles, st.Hops, st.RampMoves, st.MaxReceived, int64(st.MaxQueueLen), st.Noops, st.Steps} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for i := range t.coords {
		buf = binary.AppendUvarint(buf, uint64(t.off[i+1]-t.off[i]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.clocks)))
	for _, v := range t.clocks {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.runs)))
	acc, wave := int64(0), int64(0) // where the previous run, and the previous consume, ended
	for _, r := range t.runs {
		buf = binary.AppendUvarint(buf, uint64(r.n)<<tapeKindBits|uint64(r.kind))
		buf = binary.AppendVarint(buf, int64(r.acc)-acc)
		acc = int64(r.acc) + int64(r.n)
		if r.kind != tapeLoad {
			buf = binary.AppendVarint(buf, int64(r.wave)-wave)
			wave = int64(r.wave) + int64(r.n)
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

	total, clocks := 0, 0
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
			t.events += pe.Ops[k].tapeEvents()
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
	nr := d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("fabric: tape codec: %v", d.err)
	}
	if t.events > MaxTapeEvents || nr > uint64(t.events) || nr > uint64(d.remaining())/2 { // a run moves an element and takes two bytes at least
		return nil, fmt.Errorf("fabric: tape codec: %d runs in %d bytes, the program leaves %d events (cap %d)", nr, d.remaining(), t.events, MaxTapeEvents)
	}
	if err := t.decodeRuns(d, int(nr)); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("fabric: tape codec: %d trailing bytes", d.remaining())
	}
	return t, nil
}

// decodeRuns reads n runs, holding each to the image t.off describes and to
// the waves loaded before it, and all of them to the t.events elements the
// program moves.
func (t *Tape) decodeRuns(d *wireDec, n int) error {
	total, left := int64(t.AccLen()), int64(t.events)
	t.runs = make([]tapeRun, n)
	acc, wave, loads := int64(0), int64(0), int64(0) // the previous run's end, the previous consume's, the waves defined
	for i := range t.runs {
		head, da, dw := d.uvarint(), d.varint(), int64(0)
		kind, length := uint32(head&(1<<tapeKindBits-1)), int64(head>>tapeKindBits)
		if kind != tapeLoad {
			dw = d.varint()
		}
		acc, wave = acc+da, wave+dw
		switch {
		case d.err != nil:
			return fmt.Errorf("fabric: tape codec: run %d: %v", i, d.err)
		case kind >= tapeKinds || length == 0 || length > left:
			return fmt.Errorf("fabric: tape codec: run %d: kind %d, %d elements of the %d left", i, kind, length, left)
		case da < -total || da > total || acc < 0 || acc+length > total: // a delta wider than the image: its sum may have wrapped
			return fmt.Errorf("fabric: tape codec: run %d: elements %d to %d of an image of %d", i, acc, acc+length, total)
		case kind != tapeLoad && (dw < -loads || dw > loads || wave < 0 || wave+length > loads):
			return fmt.Errorf("fabric: tape codec: run %d: consumes waves %d to %d, %d loaded so far", i, wave, wave+length, loads)
		}
		first := wave
		if kind == tapeLoad {
			first, loads = loads, loads+length
		} else {
			wave += length
		}
		t.runs[i] = tapeRun{acc: uint32(acc), wave: uint32(first), n: uint32(length), kind: kind}
		acc, left = acc+length, left-length
	}
	if left != 0 {
		return fmt.Errorf("fabric: tape codec: the runs move %d elements, the program leaves %d", int64(t.events)-left, t.events)
	}
	t.waves = int(loads)
	return nil
}

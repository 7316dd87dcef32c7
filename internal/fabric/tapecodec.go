package fabric

import (
	"fmt"
	"math"

	"repro/internal/bincodec"
)

// Binary codec for Tape: what lets a plan store hand a restarted process the
// answer of a simulation instead of the program to simulate again. A tape
// is only ever decoded next to the Spec it was recorded from and the lengths
// of the vectors the recording bound, and the decoder takes from those
// everything they determine — the PE set and its order, each PE's
// accumulator (the longer of its bound vector and the span its ops
// address), the clock slots of every PE, how many elements the program
// moves — so the section carries, and a hostile one can lie about, only
// what the run decided:
//
//	uvarint  cycles
//	uvarint  hops, ramp moves, max received, max queue length, no-ops, steps
//	varint   clock sample                per slot, PE by PE, as many as the PEs' ClockSlots
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
	e := &bincodec.Encoder{Buf: buf}
	st := &t.stats
	for _, v := range [...]int64{t.cycles, st.Hops, st.RampMoves, st.MaxReceived, int64(st.MaxQueueLen), st.Noops, st.Steps} {
		e.Uvarint(uint64(v))
	}
	for _, v := range t.clocks {
		e.Varint(v)
	}
	e.Uvarint(uint64(len(t.runs)))
	acc, wave := int64(0), int64(0) // where the previous run, and the previous consume, ended
	for _, r := range t.runs {
		e.Uvarint(uint64(r.n)<<tapeKindBits | uint64(r.kind))
		e.Varint(int64(r.acc) - acc)
		acc = int64(r.acc) + int64(r.n)
		if r.kind != tapeLoad {
			e.Varint(int64(r.wave) - wave)
			wave = int64(r.wave) + int64(r.n)
		}
	}
	return e.Buf
}

// SizeHint is the length of the section AppendBinary writes, counted field
// by field, so that a caller can size a buffer once.
func (t *Tape) SizeHint() int {
	st := &t.stats
	n := 0
	for _, v := range [...]int64{t.cycles, st.Hops, st.RampMoves, st.MaxReceived, int64(st.MaxQueueLen), st.Noops, st.Steps, int64(len(t.runs))} {
		n += bincodec.UvarintLen(uint64(v))
	}
	for _, v := range t.clocks {
		n += bincodec.VarintLen(v)
	}
	acc, wave := int64(0), int64(0)
	for _, r := range t.runs {
		n += bincodec.UvarintLen(uint64(r.n)<<tapeKindBits|uint64(r.kind)) + bincodec.VarintLen(int64(r.acc)-acc)
		acc = int64(r.acc) + int64(r.n)
		if r.kind != tapeLoad {
			n += bincodec.VarintLen(int64(r.wave) - wave)
			wave = int64(r.wave) + int64(r.n)
		}
	}
	return n
}

// DecodeTape decodes the section AppendBinary wrote for a tape recorded from
// program s, which must be valid (Spec.Validate), with bound(i) elements
// bound to the PE at row-major index i; a nil bound takes the lengths of
// the spec's own bindings (Spec.PE). data must hold the section and nothing
// else.
func DecodeTape(s *Spec, bound func(i int) int, data []byte) (*Tape, error) {
	if bound == nil {
		bound = func(i int) int { return len(s.initOf(i)) }
	}
	d := bincodec.NewDecoder(data)
	count := func() int64 { // a counter or a length: non-negative in an int64
		v := d.Uvarint()
		if v > math.MaxInt64 {
			d.Fail()
			return 0
		}
		return int64(v)
	}
	t := &Tape{
		cycles: count(),
		stats: Stats{Hops: count(), RampMoves: count(), MaxReceived: count(),
			MaxQueueLen: int(count()), Noops: count(), Steps: count()},
		spec: s,
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("fabric: tape codec: %v", d.Err())
	}
	clocks, err := t.layOut(s, bound)
	if err != nil {
		return nil, err
	}
	if clocks > d.Remaining() {
		return nil, fmt.Errorf("fabric: tape codec: %d clock samples truncated", clocks)
	}
	if clocks > 0 {
		t.clocks = make([]int64, clocks)
		for i := range t.clocks {
			t.clocks[i] = d.Varint()
		}
	}
	nr := d.Uvarint()
	if d.Err() != nil {
		return nil, fmt.Errorf("fabric: tape codec: %v", d.Err())
	}
	if t.events > MaxTapeEvents || nr > uint64(t.events) || nr > uint64(d.Remaining())/2 { // a run moves an element and takes two bytes at least
		return nil, fmt.Errorf("fabric: tape codec: %d runs in %d bytes, the program leaves %d events (cap %d)", nr, d.Remaining(), t.events, MaxTapeEvents)
	}
	if err := t.decodeRuns(d, int(nr)); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("fabric: tape codec: %d trailing bytes", d.Remaining())
	}
	return t, nil
}

// layOut derives the tape's image from its program and the bound lengths,
// as the engine lays one out: per PE the longer of its bound vector and the
// span its ops address, and the clock slots of its program. It counts the
// events the program leaves, and returns the clock samples it holds.
func (t *Tape) layOut(s *Spec, bound func(i int) int) (clocks int, err error) {
	type derived struct{ need, events, clocks int }
	progs := s.Programs()
	per := make([]derived, len(progs))
	for k, p := range progs {
		per[k].need, per[k].clocks = p.AccNeed(), p.ClockSlots
		for j := range p.Ops {
			// Capped past the tape's, so that no sum below wraps.
			per[k].events = min(per[k].events+p.Ops[j].tapeEvents(), MaxTapeEvents+1)
		}
	}
	t.off = make([]int32, 0, s.Len()+1)
	total := 0
	for i, k := range s.place {
		if k == 0 {
			continue
		}
		t.off = append(t.off, int32(total))
		p := &per[k-1]
		n := max(p.need, bound(i))
		if n > math.MaxInt32-total || p.clocks > math.MaxInt32-clocks {
			return 0, fmt.Errorf("fabric: tape codec: an image of over %d elements or clock slots", math.MaxInt32)
		}
		total += n
		t.events = min(t.events+p.events, MaxTapeEvents+1)
		clocks += p.clocks
	}
	t.off = append(t.off, int32(total))
	if clocks > 0 { // the clock offsets, only for a program that samples
		t.clkOff = make([]int32, 0, s.Len()+1)
		at := 0
		for _, k := range s.place {
			if k > 0 {
				t.clkOff = append(t.clkOff, int32(at))
				at += per[k-1].clocks
			}
		}
		t.clkOff = append(t.clkOff, int32(at))
	}
	return clocks, nil
}

// decodeRuns reads n runs, holding each to the image t.off describes and to
// the waves loaded before it, and all of them to the t.events elements the
// program moves.
func (t *Tape) decodeRuns(d *bincodec.Decoder, n int) error {
	total, left := int64(t.AccLen()), int64(t.events)
	t.runs = make([]tapeRun, n)
	acc, wave, loads := int64(0), int64(0), int64(0) // the previous run's end, the previous consume's, the waves defined
	for i := range t.runs {
		head, da, dw := d.Uvarint(), d.Varint(), int64(0)
		kind, length := uint32(head&(1<<tapeKindBits-1)), int64(head>>tapeKindBits)
		if kind != tapeLoad {
			dw = d.Varint()
		}
		acc, wave = acc+da, wave+dw
		switch {
		case d.Err() != nil:
			return fmt.Errorf("fabric: tape codec: run %d: %v", i, d.Err())
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

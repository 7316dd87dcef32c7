package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"

	"repro/internal/mesh"
)

// Binary codec for Spec: the persistence hook the plan store builds on.
// A Spec is plain data — programs, routing tables, optional init vectors —
// so it serialises without reflection into a compact, versioned, fully
// deterministic byte form. The collectives give most PEs one of a few
// programs (the root, the leaves, the relays of each tree level), so a frame
// lists each distinct program once and then every PE by reference:
//
//	version byte
//	uvarint width, height, programmed PEs, programs
//	each program: its ops, its routing table (colors ascending), its clock slots
//	each PE in row-major order: x, y, its program's index, its init vector
//
// Programs are numbered in order of first use in row-major PE order, so one
// walk numbers them with no sorting, and encoding the same program twice
// (or in two processes) yields identical bytes. That determinism is what lets
// the plan store address blobs by content hash. The decoder holds frames to
// the same canon: it accepts exactly the byte strings the encoder can emit,
// so decode-then-encode is the identity.
//
// Integers use varint/uvarint encoding; floats are IEEE-754 bit patterns
// in little-endian order. The first byte is the layout version; a frame of
// any other layout is refused.

// SpecCodecVersion is the current version byte of the Spec binary layout.
// Layout 1 spelled out every PE's program; layout 2 lists each once.
const SpecCodecVersion = 2

// Smallest encodings of the frame's repeated records: what a count read
// from the frame is checked against before it sizes anything.
const (
	minPEBytes      = 4 // x, y, program index, init length
	minProgramBytes = 3 // three counts: ops, colors, clock slots
	minOpBytes      = 9 // kind, two colors, five varints, reduce op
	minColorBytes   = 2 // color, config count
	minConfigBytes  = 3 // accept, forward, times
)

// MarshalBinary encodes the spec deterministically.
func (s *Spec) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.SizeHint()))
}

// AppendBinary appends MarshalBinary's bytes to dst: the header, the
// spec's programs in row-major order of first use, then each PE's record.
func (s *Spec) AppendBinary(dst []byte) ([]byte, error) {
	progs := s.Programs()
	e := wireEnc{buf: dst}
	e.byte(SpecCodecVersion)
	e.uvarint(uint64(s.Width))
	e.uvarint(uint64(s.Height))
	e.uvarint(uint64(s.n))
	e.uvarint(uint64(len(progs)))
	for _, p := range progs {
		e.program(p)
	}
	for i := range s.pes {
		pe := &s.pes[i]
		if pe.prog == nil {
			continue
		}
		c := s.coord(i)
		e.varint(int64(c.X))
		e.varint(int64(c.Y))
		e.uvarint(uint64(pe.prog.id))
		e.uvarint(uint64(len(pe.Init)))
		for _, v := range pe.Init {
			e.f32(v)
		}
	}
	return e.buf, nil
}

// SizeHint is room for MarshalBinary's bytes, estimated from the spec's
// counts so that a caller can size a buffer once: opBytes an op, and a PE
// record at the length its coordinates and program index take at most. It
// leaves out the PEs' Init vectors, which a compiled plan's spec does not
// carry.
func (s *Spec) SizeHint() int {
	progs := s.Programs()
	size := 1 + 4*binary.MaxVarintLen32
	for _, p := range progs {
		size += minProgramBytes + opBytes*len(p.Ops) + minColorBytes*len(p.Configs)
		for _, row := range p.Configs {
			size += minConfigBytes * len(row.Cfgs)
		}
	}
	peBytes := varintLen(s.Width) + varintLen(s.Height) + varintLen(len(progs)) + 1
	return size + s.n*peBytes
}

// opBytes is what an op takes in a frame when one of its five counts and
// offsets takes two bytes and the rest one: a frame of longer ones grows its
// buffer once.
const opBytes = 10

// varintLen is the length of the varint encoding of any of 0..n.
func varintLen(n int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutVarint(b[:], int64(n))
}

// program appends one program: what a PE runs, without where it sits or its
// init vector.
func (e *wireEnc) program(pe *Program) {
	e.uvarint(uint64(len(pe.Ops)))
	for _, op := range pe.Ops {
		e.byte(byte(op.Kind))
		e.byte(byte(op.Color))
		e.byte(byte(op.OutColor))
		e.varint(int64(op.N))
		e.varint(int64(op.Off))
		e.varint(int64(op.N2))
		e.varint(int64(op.Off2))
		e.varint(int64(op.Slot))
		e.byte(byte(op.Reduce))
	}
	e.uvarint(uint64(len(pe.Configs)))
	for k := range pe.Configs {
		cfgs := pe.Configs[k].Cfgs
		e.byte(byte(pe.Configs[k].Color))
		e.uvarint(uint64(len(cfgs)))
		for _, cfg := range cfgs {
			e.byte(byte(cfg.Accept))
			e.byte(byte(cfg.Forward))
			e.varint(int64(cfg.Times))
		}
	}
	e.varint(int64(pe.ClockSlots))
}

// UnmarshalBinary decodes a spec previously produced by MarshalBinary,
// replacing the receiver's contents. The frame must be canonical: programs
// pairwise distinct, each used, and numbered in order of first use; PEs in
// strictly ascending row-major order; colors strictly ascending per program;
// every integer in its shortest encoding. The decoded program lives in a
// handful of arenas (the PE table, one program array, chunked op, config
// and color-table arrays) whose sizes are bounded by the bytes actually
// present, never by a count the frame merely claims. The frame's programs
// become the spec's table as they stand: the PEs that run one share it.
func (s *Spec) UnmarshalBinary(data []byte) error {
	d := &wireDec{buf: data}
	if v := d.byte(); v != SpecCodecVersion {
		if d.err != nil {
			return fmt.Errorf("fabric: spec codec: %v", d.err)
		}
		return fmt.Errorf("fabric: spec codec version %d, this build reads %d", v, SpecCodecVersion)
	}
	uw, uh, un, um := d.uvarint(), d.uvarint(), d.uvarint(), d.uvarint()
	if d.err != nil {
		return fmt.Errorf("fabric: spec codec: %v", d.err)
	}
	// The PE table is sized by the grid, so the grid may not outgrow the
	// frame: a fully programmed region always passes (minPEBytes a PE), a
	// sparse one as long as its table has no more entries than the frame
	// has bytes.
	// Every program is some PE's, and the PEs and programs claimed must fit
	// in the bytes left.
	size, left := uint64(len(data)), uint64(d.remaining())
	if uw < 1 || uh < 1 || uw > size || uh > size/uw || un > uw*uh || um > un ||
		un > left/minPEBytes || um > (left-un*minPEBytes)/minProgramBytes {
		return fmt.Errorf("fabric: spec codec: %d PEs of %d programs on %dx%d grid in a %d-byte frame", un, um, uw, uh, len(data))
	}
	width, height, n, m := int(uw), int(uh), int(un), int(um)
	out := &Spec{Width: width, Height: height, pes: make([]PESpec, width*height), n: n,
		tab: &table{progs: make([]*Program, m)}}
	progs := make([]Program, m)
	table := newProgramTable(m)
	var (
		ops  arena[Op]
		cfgs arena[RouterConfig]
		rows arena[ColorConfig]
	)
	for j := range progs {
		off, prog := d.off, &progs[j]
		prog.tab, prog.id, out.tab.progs[j] = out.tab, int32(j), prog
		nops := d.uvarint()
		if nops > uint64(d.remaining())/minOpBytes {
			return fmt.Errorf("fabric: spec codec: program %d ops truncated", j)
		}
		prog.Ops = ops.take(int(nops), m-j, d.remaining()/minOpBytes)
		for k := range prog.Ops {
			prog.Ops[k] = Op{
				Kind:     OpKind(d.byte()),
				Color:    mesh.Color(d.byte()),
				OutColor: mesh.Color(d.byte()),
				N:        int(d.varint()),
				Off:      int(d.varint()),
				N2:       int(d.varint()),
				Off2:     int(d.varint()),
				Slot:     int(d.varint()),
				Reduce:   ReduceOp(d.byte()),
			}
		}
		ncolors := d.uvarint()
		if ncolors > uint64(d.remaining())/minColorBytes {
			return fmt.Errorf("fabric: spec codec: program %d configs truncated", j)
		}
		prog.Configs = rows.take(int(ncolors), m-j, d.remaining()/minColorBytes)
		for k := range prog.Configs {
			col := mesh.Color(d.byte())
			if k > 0 && col <= prog.Configs[k-1].Color {
				return fmt.Errorf("fabric: spec codec: program %d color %d out of ascending order", j, col)
			}
			ncfgs := d.uvarint()
			if ncfgs > uint64(d.remaining())/minConfigBytes {
				return fmt.Errorf("fabric: spec codec: program %d configs truncated", j)
			}
			list := cfgs.take(int(ncfgs), m-j, d.remaining()/minConfigBytes)
			for l := range list {
				list[l] = RouterConfig{
					Accept:  mesh.Direction(d.byte()),
					Forward: mesh.DirSet(d.byte()),
					Times:   int(d.varint()),
				}
			}
			prog.Configs[k] = ColorConfig{Color: col, Cfgs: list}
		}
		prog.ClockSlots = int(d.varint())
		prog.links = linksOf(prog.Configs)
		if d.err != nil {
			return fmt.Errorf("fabric: spec codec: program %d: %v", j, d.err)
		}
		if first := table.intern(data, off, d.off); first != j {
			return fmt.Errorf("fabric: spec codec: program %d repeats program %d", j, first)
		}
	}
	last, used := -1, 0
	for i := 0; i < n; i++ {
		x, y, k := d.varint(), d.varint(), d.uvarint()
		if d.err != nil {
			return fmt.Errorf("fabric: spec codec: PE %d: %v", i, d.err)
		}
		if x < 0 || x >= int64(width) || y < 0 || y >= int64(height) {
			return fmt.Errorf("fabric: spec codec: PE (%d,%d) outside %dx%d grid", x, y, width, height)
		}
		c := mesh.Coord{X: int(x), Y: int(y)}
		idx := c.Y*width + c.X
		if idx <= last {
			return fmt.Errorf("fabric: spec codec: PE %v out of row-major order", c)
		}
		last = idx
		if k > uint64(used) || k >= uint64(m) {
			return fmt.Errorf("fabric: spec codec: PE %v runs program %d, the next unused is %d of %d", c, k, used, m)
		}
		if k == uint64(used) {
			used++
		}
		pe := &out.pes[idx]
		pe.prog = &progs[k]
		if ni := d.uvarint(); ni > 0 {
			if ni > uint64(d.remaining())/4 {
				return fmt.Errorf("fabric: spec codec: PE %v init truncated", c)
			}
			pe.Init = make([]float32, ni)
			for j := range pe.Init {
				pe.Init[j] = d.f32()
			}
		}
		if d.err != nil {
			return fmt.Errorf("fabric: spec codec: PE %v: %v", c, d.err)
		}
	}
	if used != m {
		return fmt.Errorf("fabric: spec codec: %d of %d programs run on no PE", m-used, m)
	}
	if d.remaining() != 0 {
		return fmt.Errorf("fabric: spec codec: %d trailing bytes", d.remaining())
	}
	*s = *out
	return nil
}

// programTable numbers the encoded programs of a frame in order of first use
// and finds a program's number by its bytes: a hash of the bytes picks a
// slot, and the bytes are compared on a hash hit. The encoding of a program
// is canonical, so equal bytes are equal programs: the decoder holds a frame
// to programs pairwise distinct with it.
type programTable struct {
	spans []progSpan // by number: where each program's bytes lie
	slots []int32    // open addressing over the hashes: number+1, 0 when free
}

type progSpan struct {
	hash     uint64
	off, end int
}

var programSeed = maphash.MakeSeed()

// newProgramTable sizes a table for n programs: two allocations, whatever n.
func newProgramTable(n int) programTable {
	return programTable{spans: make([]progSpan, 0, n), slots: make([]int32, slotsFor(n))}
}

// slotsFor is the slot count that keeps n programs at most half the table.
func slotsFor(n int) int {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return size
}

// intern returns the number of the program buf[off:end] holds, numbering it
// next when the table has not seen it.
func (t *programTable) intern(buf []byte, off, end int) int {
	if 2*(len(t.spans)+1) > len(t.slots) {
		t.slots = make([]int32, slotsFor(2*len(t.spans)+1))
		for k, sp := range t.spans {
			t.slots[t.free(sp.hash)] = int32(k + 1)
		}
	}
	h := maphash.Bytes(programSeed, buf[off:end])
	mask := len(t.slots) - 1
	i := int(h) & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if sp := t.spans[t.slots[i]-1]; sp.hash == h && bytes.Equal(buf[sp.off:sp.end], buf[off:end]) {
			return int(t.slots[i] - 1)
		}
	}
	t.spans = append(t.spans, progSpan{hash: h, off: off, end: end})
	t.slots[i] = int32(len(t.spans))
	return len(t.spans) - 1
}

// free is the first free slot on the probe sequence of hash h.
func (t *programTable) free(h uint64) int {
	mask := len(t.slots) - 1
	i := int(h) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// arena hands out consecutive sub-slices of a few large arrays, so a
// decoded program costs a handful of allocations instead of one per PE.
type arena[T any] struct{ free []T }

// take returns n zeroed elements, capped so an append by the caller cannot
// run into its neighbour. When the current array is used up, the next one
// is sized by assuming each of the `more` records still to come needs n as
// well (programs are near-uniform across PEs, so this is usually the last
// array), but never beyond limit — the most elements the unread bytes could
// still encode, which the caller has already checked n against.
func (a *arena[T]) take(n, more, limit int) []T {
	if n == 0 {
		return nil
	}
	if n > len(a.free) {
		size := limit
		if more < limit/n {
			size = n * more
		}
		a.free = make([]T, size)
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// wireEnc appends primitive values to a growing buffer.
type wireEnc struct {
	buf []byte
}

func (e *wireEnc) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *wireEnc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *wireEnc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *wireEnc) f32(v float32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(v))
}

// wireDec reads primitive values, latching the first error so callers can
// decode a run of fields and check once.
type wireDec struct {
	buf []byte
	off int
	err error
}

func (d *wireDec) remaining() int { return len(d.buf) - d.off }

func (d *wireDec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated at offset %d", d.off)
	}
}

func (d *wireDec) byte() byte {
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// uvarint reads an unsigned varint in its shortest encoding; a padded one
// (final byte zero) is a decode error, so every value has one byte form.
func (d *wireDec) uvarint() uint64 {
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 { // one byte: most counts, offsets and coordinates
		d.off++
		return uint64(d.buf[d.off-1])
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// varint reads a zig-zag signed varint, as binary.Varint does, on top of
// the canonical uvarint.
func (d *wireDec) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *wireDec) f32() float32 {
	if d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	return v
}

package fabric

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bincodec"
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
// Integers use canonical varints and floats IEEE-754 bit patterns in
// little-endian order (internal/bincodec). The first byte is the layout
// version; a frame of any other layout is refused.

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
	e := &bincodec.Encoder{Buf: dst}
	e.Byte(SpecCodecVersion)
	e.Uvarint(uint64(s.Width))
	e.Uvarint(uint64(s.Height))
	e.Uvarint(uint64(s.n))
	e.Uvarint(uint64(len(progs)))
	for _, p := range progs {
		appendProgram(e, p)
	}
	for i := range s.pes {
		pe := &s.pes[i]
		if pe.prog == nil {
			continue
		}
		c := s.coord(i)
		e.Varint(int64(c.X))
		e.Varint(int64(c.Y))
		e.Uvarint(uint64(pe.prog.id))
		e.Uvarint(uint64(len(pe.Init)))
		for _, v := range pe.Init {
			e.F32(v)
		}
	}
	return e.Buf, nil
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
	peBytes := bincodec.VarintLen(int64(s.Width)) + bincodec.VarintLen(int64(s.Height)) + bincodec.UvarintLen(uint64(len(progs))) + 1
	return size + s.n*peBytes
}

// opBytes is what an op takes in a frame when one of its five counts and
// offsets takes two bytes and the rest one: a frame of longer ones grows its
// buffer once.
const opBytes = 10

// appendProgram appends one program: what a PE runs, without where it sits
// or its init vector.
func appendProgram(e *bincodec.Encoder, pe *Program) {
	e.Uvarint(uint64(len(pe.Ops)))
	for _, op := range pe.Ops {
		e.Byte(byte(op.Kind))
		e.Byte(byte(op.Color))
		e.Byte(byte(op.OutColor))
		e.Varint(int64(op.N))
		e.Varint(int64(op.Off))
		e.Varint(int64(op.N2))
		e.Varint(int64(op.Off2))
		e.Varint(int64(op.Slot))
		e.Byte(byte(op.Reduce))
	}
	e.Uvarint(uint64(len(pe.Configs)))
	for k := range pe.Configs {
		cfgs := pe.Configs[k].Cfgs
		e.Byte(byte(pe.Configs[k].Color))
		e.Uvarint(uint64(len(cfgs)))
		for _, cfg := range cfgs {
			e.Byte(byte(cfg.Accept))
			e.Byte(byte(cfg.Forward))
			e.Varint(int64(cfg.Times))
		}
	}
	e.Varint(int64(pe.ClockSlots))
}

// UnmarshalBinary decodes a spec previously produced by MarshalBinary,
// replacing the receiver's contents. The frame must be canonical: programs
// pairwise distinct, each used, and numbered in order of first use; PEs in
// strictly ascending row-major order; colors strictly ascending per program;
// every integer in its shortest encoding. The decoded program lives in a
// handful of arenas (the PE table, one program array, chunked op, config
// and color-table arrays) whose sizes are bounded by the bytes actually
// present, never by a count the frame merely claims. The frame's programs
// become the spec's table as they stand, each looked up there by content as
// it is decoded; the PEs that run one share it.
func (s *Spec) UnmarshalBinary(data []byte) error {
	d := bincodec.NewDecoder(data)
	if v := d.Byte(); v != SpecCodecVersion {
		if d.Err() != nil {
			return fmt.Errorf("fabric: spec codec: %v", d.Err())
		}
		return fmt.Errorf("fabric: spec codec version %d, this build reads %d", v, SpecCodecVersion)
	}
	uw, uh, un, um := d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
	if d.Err() != nil {
		return fmt.Errorf("fabric: spec codec: %v", d.Err())
	}
	// The PE table is sized by the grid, so the grid may not outgrow the
	// frame: a fully programmed region always passes (minPEBytes a PE), a
	// sparse one as long as its table has no more entries than the frame
	// has bytes.
	// Every program is some PE's, and the PEs and programs claimed must fit
	// in the bytes left.
	size, left := uint64(len(data)), uint64(d.Remaining())
	if uw < 1 || uh < 1 || uw > size || uh > size/uw || un > uw*uh || um > un ||
		un > left/minPEBytes || um > (left-un*minPEBytes)/minProgramBytes {
		return fmt.Errorf("fabric: spec codec: %d PEs of %d programs on %dx%d grid in a %d-byte frame", un, um, uw, uh, len(data))
	}
	width, height, n, m := int(uw), int(uh), int(un), int(um)
	tab := &table{progs: make([]*Program, 0, m)}
	tab.rehash(m)
	out := &Spec{Width: width, Height: height, pes: make([]PESpec, width*height), n: n, tab: tab}
	progs := make([]Program, m)
	var (
		ops  arena[Op]
		cfgs arena[RouterConfig]
		rows arena[ColorConfig]
	)
	for j := range progs {
		prog := &progs[j]
		nops := d.Uvarint()
		if nops > uint64(d.Remaining())/minOpBytes {
			return fmt.Errorf("fabric: spec codec: program %d ops truncated", j)
		}
		prog.Ops = ops.take(int(nops), room(int(nops), m-j, d.Remaining()/minOpBytes))
		for k := range prog.Ops {
			prog.Ops[k] = Op{
				Kind:     OpKind(d.Byte()),
				Color:    mesh.Color(d.Byte()),
				OutColor: mesh.Color(d.Byte()),
				N:        int(d.Varint()),
				Off:      int(d.Varint()),
				N2:       int(d.Varint()),
				Off2:     int(d.Varint()),
				Slot:     int(d.Varint()),
				Reduce:   ReduceOp(d.Byte()),
			}
		}
		ncolors := d.Uvarint()
		if ncolors > uint64(d.Remaining())/minColorBytes {
			return fmt.Errorf("fabric: spec codec: program %d configs truncated", j)
		}
		prog.Configs = rows.take(int(ncolors), room(int(ncolors), m-j, d.Remaining()/minColorBytes))
		for k := range prog.Configs {
			col := mesh.Color(d.Byte())
			if k > 0 && col <= prog.Configs[k-1].Color {
				return fmt.Errorf("fabric: spec codec: program %d color %d out of ascending order", j, col)
			}
			ncfgs := d.Uvarint()
			if ncfgs > uint64(d.Remaining())/minConfigBytes {
				return fmt.Errorf("fabric: spec codec: program %d configs truncated", j)
			}
			list := cfgs.take(int(ncfgs), room(int(ncfgs), m-j, d.Remaining()/minConfigBytes))
			for l := range list {
				list[l] = RouterConfig{
					Accept:  mesh.Direction(d.Byte()),
					Forward: mesh.DirSet(d.Byte()),
					Times:   int(d.Varint()),
				}
			}
			prog.Configs[k] = ColorConfig{Color: col, Cfgs: list}
		}
		prog.ClockSlots = int(d.Varint())
		prog.links = linksOf(prog.Configs)
		if d.Err() != nil {
			return fmt.Errorf("fabric: spec codec: program %d: %v", j, d.Err())
		}
		prog.hOps, prog.hCfg = programHash(prog)
		first, slot := tab.find(prog)
		if first != nil {
			return fmt.Errorf("fabric: spec codec: program %d repeats program %d", j, first.id)
		}
		tab.add(prog, slot)
	}
	last, used := -1, 0
	for i := 0; i < n; i++ {
		x, y, k := d.Varint(), d.Varint(), d.Uvarint()
		if d.Err() != nil {
			return fmt.Errorf("fabric: spec codec: PE %d: %v", i, d.Err())
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
		if ni := d.Uvarint(); ni > 0 {
			if ni > uint64(d.Remaining())/4 {
				return fmt.Errorf("fabric: spec codec: PE %v init truncated", c)
			}
			pe.Init = make([]float32, ni)
			for j := range pe.Init {
				pe.Init[j] = d.F32()
			}
		}
		if d.Err() != nil {
			return fmt.Errorf("fabric: spec codec: PE %v: %v", c, d.Err())
		}
	}
	if used != m {
		return fmt.Errorf("fabric: spec codec: %d of %d programs run on no PE", m-used, m)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("fabric: spec codec: %d trailing bytes", d.Remaining())
	}
	*s = *out
	return nil
}

// room is the array an arena takes for a decoded record of n elements when
// its last is used up: n for each of the more records still to come
// (programs are near-uniform across PEs, so this is usually the last
// array), but never past limit, the most elements the unread bytes can
// still encode, which n has been checked against.
func room(n, more, limit int) int {
	if n > 0 && more < limit/n {
		return n * more
	}
	return limit
}

package fabric

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/bincodec"
	"repro/internal/mesh"
)

// Binary codec for Spec: the persistence hook the plan store builds on.
// A Spec is plain data — programs, routing tables and where each runs — so
// it serialises without reflection into a compact, versioned, fully
// deterministic byte form. The collectives give most PEs one of a few
// programs (the root, the leaves, the relays of each tree level), so a frame
// lists each distinct program once and then the placement as runs of cells
// that run one program:
//
//	version byte
//	uvarint width, height, programs
//	each program: its ops, its routing table (colors ascending), its clock slots
//	uvarint run count
//	each run, in row-major order: uvarint index, uvarint cells
//
// A run's index is 0 for unprogrammed cells and k+1 for program k; two
// adjacent runs never share an index, and the runs cover the region exactly.
// Programs are numbered in order of first use in row-major order, so one
// walk numbers them with no sorting, and encoding the same program twice
// (or in two processes) yields identical bytes. That determinism is what lets
// the plan store address blobs by content hash. The decoder holds frames to
// the same canon: it accepts exactly the byte strings the encoder can emit,
// so decode-then-encode is the identity. A frame carries no initial
// vectors: a spec's bindings (PE) are its builder's, and plans bind their
// runs' inputs with NewBound.
//
// Integers use canonical varints and floats IEEE-754 bit patterns in
// little-endian order (internal/bincodec). The first byte is the layout
// version; a frame of any other layout is refused.

// SpecCodecVersion is the current version byte of the Spec binary layout.
// Layout 1 spelled out every PE's program; layout 2 listed each once, then a
// record per PE (coordinate, program index, initial vector); layout 3 writes
// the placement as runs.
const SpecCodecVersion = 3

// maxCells bounds the region a frame may describe: the placement is sized by
// it, and a run of cells takes two bytes however many it covers, so the
// bytes alone bound nothing. A million cells are more than a wafer's PEs.
const maxCells = 1 << 20

// Smallest encodings of the frame's repeated records: what a count read
// from the frame is checked against before it sizes anything.
const (
	minRunBytes     = 2 // index, cells
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
// spec's programs in row-major order of first use, then the placement's
// runs.
func (s *Spec) AppendBinary(dst []byte) ([]byte, error) {
	if len(s.place) > maxCells {
		return dst, fmt.Errorf("fabric: spec codec: a %dx%d region is over the %d cells a frame holds", s.Width, s.Height, maxCells)
	}
	progs := s.Programs()
	e := &bincodec.Encoder{Buf: dst}
	e.Byte(SpecCodecVersion)
	e.Uvarint(uint64(s.Width))
	e.Uvarint(uint64(s.Height))
	e.Uvarint(uint64(len(progs)))
	for _, p := range progs {
		appendProgram(e, p)
	}
	e.Uvarint(uint64(s.runs()))
	for i := 0; i < len(s.place); {
		j := s.runEnd(i)
		e.Uvarint(uint64(s.place[i]))
		e.Uvarint(uint64(j - i))
		i = j
	}
	return e.Buf, nil
}

// runEnd is the end of the run of cells that starts at i.
func (s *Spec) runEnd(i int) int {
	j := i + 1
	for j < len(s.place) && s.place[j] == s.place[i] {
		j++
	}
	return j
}

// runs is the number of runs the placement comes in.
func (s *Spec) runs() int {
	n := 0
	for i := 0; i < len(s.place); i = s.runEnd(i) {
		n++
	}
	return n
}

// SizeHint is room for MarshalBinary's bytes, estimated from the spec's
// counts so that a caller can size a buffer once: opBytes an op, and a run
// at the length its index and cell count take at most.
func (s *Spec) SizeHint() int {
	progs := s.Programs()
	size := 1 + 4*binary.MaxVarintLen32
	for _, p := range progs {
		size += minProgramBytes + opBytes*len(p.Ops) + minColorBytes*len(p.Configs)
		for _, row := range p.Configs {
			size += minConfigBytes * len(row.Cfgs)
		}
	}
	runBytes := bincodec.UvarintLen(uint64(len(progs))) + bincodec.UvarintLen(uint64(len(s.place)))
	return size + s.runs()*runBytes
}

// opBytes is what an op takes in a frame when one of its five counts and
// offsets takes two bytes and the rest one: a frame of longer ones grows its
// buffer once.
const opBytes = 10

// appendProgram appends one program: what a PE runs, without where it
// sits.
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
// pairwise distinct, each used, and numbered in order of first use; runs
// that cover the region exactly, each of at least one cell, no two adjacent
// ones of one index; colors strictly ascending per program; every integer in
// its shortest encoding. The decoded program lives in a handful of arenas
// (the placement, one program array, chunked op, config and color-table
// arrays) whose sizes are bounded by the bytes actually present, never by a
// count the frame merely claims, but for the placement of an accepted frame,
// which its region sizes (at most maxCells). The frame's programs become the spec's table as they
// stand, each looked up there by content as it is decoded; the PEs that run
// one share it.
func (s *Spec) UnmarshalBinary(data []byte) error {
	d := bincodec.NewDecoder(data)
	if v := d.Byte(); v != SpecCodecVersion {
		if d.Err() != nil {
			return fmt.Errorf("fabric: spec codec: %v", d.Err())
		}
		return fmt.Errorf("fabric: spec codec version %d, this build reads %d", v, SpecCodecVersion)
	}
	uw, uh, um := d.Uvarint(), d.Uvarint(), d.Uvarint()
	if d.Err() != nil {
		return fmt.Errorf("fabric: spec codec: %v", d.Err())
	}
	// Every program is some PE's, so there are no more programs than cells,
	// and the programs and one run claimed must fit in the bytes left.
	left := uint64(d.Remaining())
	if uw < 1 || uh < 1 || uw > maxCells || uh > maxCells/uw || um > uw*uh ||
		left < minRunBytes || um > (left-minRunBytes)/minProgramBytes {
		return fmt.Errorf("fabric: spec codec: %d programs on %dx%d grid in a %d-byte frame (at most %d cells)", um, uw, uh, len(data), maxCells)
	}
	width, height, m := int(uw), int(uh), int(um)
	tab := &table{progs: make([]*Program, 0, m)}
	tab.rehash(m)
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
	place, n, err := decodePlacement(d, m, width*height)
	if err != nil {
		return err
	}
	s.Width, s.Height, s.place, s.n, s.tab, s.binds = width, height, place, n, tab, nil
	s.coordsOnce, s.coords = sync.Once{}, nil
	return nil
}

// decodePlacement reads the placement's runs of m programs over a region of
// cells cells, the rest of the frame, and returns it with the number of
// programmed cells. It reads the runs twice: once to hold them to the canon,
// and only then, for a frame that is accepted, again to fill the placement,
// which is the one table the region rather than the bytes sizes. A frame's
// index is the placement's entry as it stands.
func decodePlacement(d *bincodec.Decoder, m, cells int) ([]int32, int, error) {
	again := bincodec.NewDecoder(d.Rest())
	nr := d.Uvarint()
	if d.Err() != nil || nr == 0 || nr > uint64(d.Remaining())/minRunBytes || nr > uint64(cells) {
		return nil, 0, fmt.Errorf("fabric: spec codec: %d runs in %d bytes over %d cells", nr, d.Remaining(), cells)
	}
	at, n, used, prev := 0, 0, 0, uint64(m+1) // prev: no index yet
	for r := uint64(0); r < nr; r++ {
		k, length := d.Uvarint(), d.Uvarint()
		switch {
		case d.Err() != nil:
			return nil, 0, fmt.Errorf("fabric: spec codec: run %d: %v", r, d.Err())
		case k == prev:
			return nil, 0, fmt.Errorf("fabric: spec codec: run %d repeats index %d", r, k)
		case k > uint64(used)+1 || k > uint64(m):
			return nil, 0, fmt.Errorf("fabric: spec codec: run %d runs program %d, the next unused is %d of %d", r, int64(k)-1, used, m)
		case length == 0 || length > uint64(cells-at):
			return nil, 0, fmt.Errorf("fabric: spec codec: run %d of %d cells at cell %d of %d", r, length, at, cells)
		}
		if k == uint64(used)+1 {
			used++
		}
		if k > 0 {
			n += int(length)
		}
		prev, at = k, at+int(length)
	}
	switch {
	case at != cells:
		return nil, 0, fmt.Errorf("fabric: spec codec: the runs cover %d of %d cells", at, cells)
	case used != m:
		return nil, 0, fmt.Errorf("fabric: spec codec: %d of %d programs run on no PE", m-used, m)
	case d.Remaining() != 0:
		return nil, 0, fmt.Errorf("fabric: spec codec: %d trailing bytes", d.Remaining())
	}
	place := make([]int32, cells)
	at = 0
	for r := again.Uvarint(); r > 0; r-- {
		k, length := int32(again.Uvarint()), int(again.Uvarint())
		if k > 0 {
			for i := at; i < at+length; i++ {
				place[i] = k
			}
		}
		at += length
	}
	return place, n, nil
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

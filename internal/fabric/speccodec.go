package fabric

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mesh"
)

// Binary codec for Spec: the persistence hook the plan store builds on.
// A Spec is plain data — programs, routing tables, optional init vectors —
// so it serialises without reflection into a compact, versioned, fully
// deterministic byte form: PEs are emitted in row-major coordinate order
// and router configuration lists in ascending color order — the order the
// Spec holds them in, so encoding is one walk with no sorting — and encoding
// the same program twice (or in two processes) yields identical bytes. That
// determinism is what lets the plan store address blobs by content hash.
// The decoder holds frames to the same canon: it accepts exactly the byte
// strings the encoder can emit, so decode-then-encode is the identity.
//
// Integers use varint/uvarint encoding; floats are IEEE-754 bit patterns
// in little-endian order. The first byte is a codec version so a future
// layout change can keep decoding old specs.

// SpecCodecVersion is the current version byte of the Spec binary layout.
const SpecCodecVersion = 1

// Smallest encodings of the frame's repeated records: what a count read
// from the frame is checked against before it sizes anything.
const (
	minPEBytes     = 6 // x, y, three counts, clock slots
	minOpBytes     = 9 // kind, two colors, five varints, reduce op
	minColorBytes  = 2 // color, config count
	minConfigBytes = 3 // accept, forward, times
)

// MarshalBinary encodes the spec deterministically.
func (s *Spec) MarshalBinary() ([]byte, error) {
	size := 3 * binary.MaxVarintLen32
	for _, pe := range s.pes {
		if pe != nil {
			size += 2*minPEBytes + 4*len(pe.Init) + 2*minOpBytes*len(pe.Ops)
			for k := range pe.Configs {
				size += minColorBytes + minConfigBytes*len(pe.Configs[k].Cfgs)
			}
		}
	}
	e := &wireEnc{buf: make([]byte, 0, size)} // an estimate: append grows past it
	e.byte(SpecCodecVersion)
	e.uvarint(uint64(s.Width))
	e.uvarint(uint64(s.Height))
	e.uvarint(uint64(s.n))
	for i, pe := range s.pes {
		if pe == nil {
			continue
		}
		c := s.coord(i)
		e.varint(int64(c.X))
		e.varint(int64(c.Y))
		e.uvarint(uint64(len(pe.Init)))
		for _, v := range pe.Init {
			e.f32(v)
		}
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
	return e.buf, nil
}

// UnmarshalBinary decodes a spec previously produced by MarshalBinary,
// replacing the receiver's contents. The frame must be canonical: PEs in
// strictly ascending row-major order, colors strictly ascending per PE,
// every integer in its shortest encoding. The decoded program lives in a
// handful of arenas (one PESpec array, chunked op, config and color-table
// arrays) whose sizes are bounded by the bytes actually present, never by a
// count the frame merely claims.
func (s *Spec) UnmarshalBinary(data []byte) error {
	d := &wireDec{buf: data}
	if v := d.byte(); v != SpecCodecVersion {
		if d.err != nil {
			return fmt.Errorf("fabric: spec codec: %v", d.err)
		}
		return fmt.Errorf("fabric: spec codec version %d, this build reads %d", v, SpecCodecVersion)
	}
	uw, uh, un := d.uvarint(), d.uvarint(), d.uvarint()
	if d.err != nil {
		return fmt.Errorf("fabric: spec codec: %v", d.err)
	}
	// The PE table is sized by the grid, so the grid may not outgrow the
	// frame: a fully programmed region always passes (minPEBytes a PE), a
	// sparse one as long as its table stays within a word per frame byte.
	size := uint64(len(data))
	if uw < 1 || uh < 1 || uw > size || uh > size/uw || un > uw*uh || un > uint64(d.remaining())/minPEBytes {
		return fmt.Errorf("fabric: spec codec: %d PEs on %dx%d grid in a %d-byte frame", un, uw, uh, len(data))
	}
	width, height, n := int(uw), int(uh), int(un)
	out := &Spec{Width: width, Height: height, pes: make([]*PESpec, width*height), free: make([]PESpec, n)}
	var (
		ops  arena[Op]
		cfgs arena[RouterConfig]
		rows arena[ColorConfig]
	)
	last := -1
	for i := 0; i < n; i++ {
		x, y := d.varint(), d.varint()
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
		pe := out.alloc()
		out.pes[idx] = pe
		if ni := d.uvarint(); ni > 0 {
			if ni > uint64(d.remaining())/4 {
				return fmt.Errorf("fabric: spec codec: PE %v init truncated", c)
			}
			pe.Init = make([]float32, ni)
			for j := range pe.Init {
				pe.Init[j] = d.f32()
			}
		}
		nops := d.uvarint()
		if nops > uint64(d.remaining())/minOpBytes {
			return fmt.Errorf("fabric: spec codec: PE %v ops truncated", c)
		}
		pe.Ops = ops.take(int(nops), n-i, d.remaining()/minOpBytes)
		for j := range pe.Ops {
			pe.Ops[j] = Op{
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
			return fmt.Errorf("fabric: spec codec: PE %v configs truncated", c)
		}
		pe.Configs = rows.take(int(ncolors), n-i, d.remaining()/minColorBytes)
		for j := range pe.Configs {
			col := mesh.Color(d.byte())
			if j > 0 && col <= pe.Configs[j-1].Color {
				return fmt.Errorf("fabric: spec codec: PE %v color %d out of ascending order", c, col)
			}
			ncfgs := d.uvarint()
			if ncfgs > uint64(d.remaining())/minConfigBytes {
				return fmt.Errorf("fabric: spec codec: PE %v configs truncated", c)
			}
			list := cfgs.take(int(ncfgs), n-i, d.remaining()/minConfigBytes)
			for k := range list {
				list[k] = RouterConfig{
					Accept:  mesh.Direction(d.byte()),
					Forward: mesh.DirSet(d.byte()),
					Times:   int(d.varint()),
				}
			}
			pe.Configs[j] = ColorConfig{Color: col, Cfgs: list}
		}
		pe.ClockSlots = int(d.varint())
		if d.err != nil {
			return fmt.Errorf("fabric: spec codec: PE %v: %v", c, d.err)
		}
	}
	if d.remaining() != 0 {
		return fmt.Errorf("fabric: spec codec: %d trailing bytes", d.remaining())
	}
	*s = *out
	return nil
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

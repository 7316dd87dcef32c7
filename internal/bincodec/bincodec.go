// Package bincodec is the primitive codec under the plan store's frames and
// the fabric's spec and tape sections: canonical varints, little-endian
// fixed-width numbers, and length-prefixed strings and bytes. Every value
// has exactly one encoding, and the decoder refuses any other (a padded
// varint, a truncated field), so a decoded frame re-encodes to the bytes it
// came from. The decoder latches its first error: a caller reads a run of
// fields and checks once.
package bincodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Encoder appends values to Buf.
type Encoder struct{ Buf []byte }

func (e *Encoder) Byte(b byte)      { e.Buf = append(e.Buf, b) }
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Encoder) Varint(v int64)   { e.Buf = binary.AppendVarint(e.Buf, v) }
func (e *Encoder) U64(v uint64)     { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }
func (e *Encoder) F32(v float32) {
	e.Buf = binary.LittleEndian.AppendUint32(e.Buf, math.Float32bits(v))
}
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends s after its length.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Prefix puts the length of what was appended since offset at before it,
// making it a length-prefixed field written in place.
func (e *Encoder) Prefix(at int) {
	var n [binary.MaxVarintLen64]byte
	e.Buf = slices.Insert(e.Buf, at, binary.AppendUvarint(n[:0], uint64(len(e.Buf)-at))...)
}

// UvarintLen is the length of v's uvarint encoding.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintLen is the length of v's varint encoding.
func VarintLen(v int64) int { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// Decoder reads values from a buffer, latching the first error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads buf from its start.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err is the first error met, nil while every read succeeded.
func (d *Decoder) Err() error { return d.err }

// Remaining is the number of bytes not read yet.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Rest is the bytes not read yet.
func (d *Decoder) Rest() []byte { return d.buf[d.off:] }

// Fail latches a truncation error at the current offset, unless an error
// is latched already.
func (d *Decoder) Fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated at offset %d", d.off)
	}
}

// zeros is what a fixed-width read past the end decodes: zero.
var zeros [8]byte

// fixed consumes n ≤ 8 bytes, or latches the error and reads zeros when
// fewer are left.
func (d *Decoder) fixed(n int) []byte {
	if n > d.Remaining() {
		d.Fail()
		return zeros[:n]
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

func (d *Decoder) Byte() byte   { return d.fixed(1)[0] }
func (d *Decoder) U64() uint64  { return binary.LittleEndian.Uint64(d.fixed(8)) }
func (d *Decoder) F32() float32 { return math.Float32frombits(binary.LittleEndian.Uint32(d.fixed(4))) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Uvarint reads an unsigned varint in its shortest encoding; a padded one
// (final byte zero) is a decode error, so every value has one byte form.
func (d *Decoder) Uvarint() uint64 {
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 { // one byte: most counts, offsets and coordinates
		d.off++
		return uint64(d.buf[d.off-1])
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.Fail()
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag signed varint on top of the canonical uvarint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bytes reads a length-prefixed field, sharing the buffer's storage.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil || n > uint64(d.Remaining()) {
		d.Fail()
		return nil
	}
	d.off += int(n)
	return d.buf[d.off-int(n) : d.off]
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

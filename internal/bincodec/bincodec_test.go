package bincodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestCodec holds the primitives to their one encoding: boundary values
// round-trip through the encoder and the decoder, the lengths UvarintLen and
// VarintLen report are the bytes written, and every way a field can be cut
// short or padded is refused, the first refusal latched with its offset.
func TestCodec(t *testing.T) {
	ints := []int64{0, 127, 128, -1, math.MinInt64, math.MaxInt64}
	uints := []uint64{0, 127, 128, math.MaxInt64, math.MaxUint64}
	for _, v := range ints {
		e := &Encoder{}
		e.Varint(v)
		d := NewDecoder(e.Buf)
		if got := d.Varint(); got != v || d.Err() != nil || d.Remaining() != 0 {
			t.Errorf("varint %d: decoded %d, err %v, %d bytes left", v, got, d.Err(), d.Remaining())
		}
		if n := VarintLen(v); n != len(e.Buf) {
			t.Errorf("VarintLen(%d) = %d, encoded in %d bytes", v, n, len(e.Buf))
		}
	}
	for _, v := range uints {
		e := &Encoder{}
		e.Uvarint(v)
		e.U64(v)
		d := NewDecoder(e.Buf)
		if got, fixed := d.Uvarint(), d.U64(); got != v || fixed != v || d.Err() != nil || d.Remaining() != 0 {
			t.Errorf("uvarint %d: decoded %d and u64 %d, err %v", v, got, fixed, d.Err())
		}
		if n := UvarintLen(v); n != len(e.Buf)-8 {
			t.Errorf("UvarintLen(%d) = %d, encoded in %d bytes", v, n, len(e.Buf)-8)
		}
	}

	e := &Encoder{}
	e.Byte(0xAB)
	e.F32(-1.5)
	e.F64(math.Inf(-1))
	e.Str("")
	e.Str("plan")
	at := len(e.Buf)
	e.Buf = append(e.Buf, "spec"...)
	e.Prefix(at)
	d := NewDecoder(e.Buf)
	if b, f, g, s0, s1, blob := d.Byte(), d.F32(), d.F64(), d.Str(), d.Str(), d.Bytes(); b != 0xAB || f != -1.5 ||
		!math.IsInf(g, -1) || s0 != "" || s1 != "plan" || string(blob) != "spec" || d.Err() != nil || d.Remaining() != 0 {
		t.Errorf("decoded %#x %v %v %q %q %q, err %v", b, f, g, s0, s1, blob, d.Err())
	}

	maxUvarint := binary.AppendUvarint(nil, math.MaxUint64)
	for _, c := range []struct {
		name string
		data []byte
		read func(d *Decoder)
		at   int // the offset the refusal names
	}{
		{"padded uvarint", []byte{0x81, 0x00}, func(d *Decoder) { d.Uvarint() }, 0},
		{"padded zero", []byte{0x80, 0x00}, func(d *Decoder) { d.Uvarint() }, 0},
		{"uvarint past 64 bits", append(append([]byte(nil), maxUvarint[:9]...), 0x02), func(d *Decoder) { d.Uvarint() }, 0},
		{"truncated varint", []byte{0x80}, func(d *Decoder) { d.Varint() }, 0},
		{"truncated f32", []byte{1, 2, 3}, func(d *Decoder) { d.F32() }, 0},
		{"truncated u64", []byte{1, 2, 3, 4, 5, 6, 7}, func(d *Decoder) { d.U64() }, 0},
		{"truncated f64", nil, func(d *Decoder) { d.F64() }, 0},
		{"truncated byte", nil, func(d *Decoder) { d.Byte() }, 0},
		{"truncated string", []byte{5, 'p', 'l'}, func(d *Decoder) { d.Str() }, 1},
		{"truncated bytes", []byte{0x80, 0x01, 1}, func(d *Decoder) { d.Bytes() }, 2},
		{"length past 64 bits", maxUvarint, func(d *Decoder) { d.Bytes() }, 10},
		{"first error latched", []byte{7, 0x80}, func(d *Decoder) {
			d.Byte()
			d.Uvarint() // fails at offset 1
			d.Byte()    // reads the 0x80
			d.U64()     // fails at offset 2, after the first error
		}, 1},
	} {
		d := NewDecoder(c.data)
		c.read(d)
		want := fmt.Sprintf("truncated at offset %d", c.at)
		if d.Err() == nil || !strings.Contains(d.Err().Error(), want) {
			t.Errorf("%s: err %v, want %q", c.name, d.Err(), want)
		}
		d.Fail()
		if !strings.Contains(d.Err().Error(), want) {
			t.Errorf("%s: a later Fail replaced the first error: %v", c.name, d.Err())
		}
	}

	// The encoder writes exactly what encoding/binary does.
	var want []byte
	for _, v := range ints {
		want = binary.AppendVarint(want, v)
	}
	e = &Encoder{}
	for _, v := range ints {
		e.Varint(v)
	}
	if !bytes.Equal(e.Buf, want) {
		t.Errorf("varints encode to % x, encoding/binary writes % x", e.Buf, want)
	}
}

// Package planstore persists compiled plans: a versioned, deterministic
// binary codec for plan.Plan and a content-addressed on-disk store of
// encoded plans. Together they close the gap PR 1's in-memory cache left
// open — every serving process still paid full compile cost on startup —
// by letting a staging run compile the workload once and a serving fleet
// warm its caches from disk (Session.Warm) before taking traffic.
//
// The codec is deterministic end to end: the spec codec emits PEs in
// row-major and router colors in ascending order, plans carry canonical
// options, and every integer and float has exactly one encoding (which
// the decoder enforces). Encoding the same logical
// plan in any process therefore yields identical bytes, and the SHA-256
// of those bytes doubles as the plan's durable address — the CID-style
// content addressing of IPFS blockstores applied to fabric programs. A
// decoded plan replays bit-identically to the freshly compiled one: same
// per-PE results, same cycle counts, same RNG chain.
package planstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/plan"
)

// FormatVersion is the newest plan blob layout version this build reads
// and writes; decoders reject blobs from future versions.
// A frame whose plan holds a replay tape (plan/tape.go) sets flagTape in the
// header's flags byte and appends, after the version-1 payload, the lengths
// of the inputs the tape was recorded under and the tape itself
// (fabric/tapecodec.go). Nothing else differs, so a plan without a tape is
// still written as the version-1 frame it always was, byte for byte, and the
// versions are told apart by exactly that flag: one encoding per plan.
// Version 2 spelled the tape one event per wavelet, version 3 spells it as
// runs. This build writes no version-2 frame and reads one for its program
// alone: the plan loads without a tape and heals like a version-1 frame.
const FormatVersion = 3

const (
	tapelessVersion = 1    // the layout of a frame without a tape section
	eventsVersion   = 2    // a tape section of events: skipped, never written
	flagTape        = 0x01 // header flags: a tape section follows the plan
)

// magic opens every encoded plan. The trailing newline and NUL catch
// text-mode corruption the way PNG's magic does.
var magic = [8]byte{'W', 'S', 'E', 'P', 'L', 'A', 'N', 0}

const (
	// endianLittle marks the byte order of the fixed-width fields. The
	// codec always writes little-endian; the marker makes the file
	// self-describing rather than making the order configurable.
	endianLittle = 0x4C // 'L'

	// headerLen is magic(8) + version(2) + endian(1) + flags(1) +
	// payload length(8) + SHA-256(32).
	headerLen = 8 + 2 + 1 + 1 + 8 + sha256.Size
)

// Encode serialises a compiled plan into its self-describing binary form
// and returns the encoding together with the hex SHA-256 of the payload —
// the plan's content address. Encoding is deterministic: the same plan
// always yields the same bytes and therefore the same address.
func Encode(p *plan.Plan) ([]byte, string, error) {
	specBytes, err := p.Spec.MarshalBinary()
	if err != nil {
		return nil, "", fmt.Errorf("planstore: encode spec: %w", err)
	}
	tape, lens := p.Tape()
	// One buffer holds the frame: the header's room first, then the payload —
	// the spec, a few bytes a PE for the trees and the tape's accumulator
	// lengths, and two or three short varints a run of the tape.
	e := &enc{buf: make([]byte, headerLen, headerLen+len(specBytes)+512+4*p.Spec.Len()+8*tape.Runs())}
	putKey(e, p.Key)
	e.str(string(p.Kind))
	e.str(string(p.Alg))
	e.str(string(p.Alg2D))
	e.varint(int64(p.P))
	e.varint(int64(p.Width))
	e.varint(int64(p.Height))
	e.varint(int64(p.B))
	e.byte(byte(p.Op))
	putOptions(e, p.Opt)
	e.f64(p.Predicted)
	e.bytes(specBytes)
	putTree(e, p.Tree)
	putTree(e, p.RowTree)
	putTree(e, p.ColTree)
	e.uvarint(uint64(len(p.Colors)))
	for _, c := range p.Colors {
		e.byte(byte(c))
	}
	if tape != nil {
		e.uvarint(uint64(len(lens)))
		for _, n := range lens {
			e.uvarint(uint64(n))
		}
		e.buf = tape.AppendBinary(e.buf)
	}
	return e.buf, seal(e.buf, tape != nil), nil
}

// seal completes a frame whose payload follows headerLen reserved bytes: it
// fills in the fixed header carrying the version (set by whether a tape
// section ends the payload), the payload's length and its SHA-256, and
// returns the hex digest.
func seal(frame []byte, tape bool) string {
	version, flags := uint16(tapelessVersion), byte(0)
	if tape {
		version, flags = FormatVersion, flagTape
	}
	payload := frame[headerLen:]
	sum := sha256.Sum256(payload)
	hdr := append(frame[:0], magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, version)
	hdr = append(hdr, endianLittle, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	copy(hdr[len(hdr):headerLen], sum[:])
	return hex.EncodeToString(sum[:])
}

// Decode reconstructs a plan from its encoded form, returning the plan
// and its verified content address. The header is validated, the payload
// is hashed and compared against the recorded digest before any field is
// trusted, and the decoded spec is structurally re-validated, so a
// tampered or truncated blob is rejected rather than replayed.
func Decode(data []byte) (*plan.Plan, string, error) {
	payload, sum, err := checkHeader(data)
	if err != nil {
		return nil, "", err
	}
	version := binary.LittleEndian.Uint16(data[8:10])
	d := &dec{buf: payload}
	key, err := getKey(d)
	if err != nil {
		return nil, "", err
	}
	p := &plan.Plan{Key: key}
	p.Kind = plan.Kind(d.str())
	p.Alg = core.Pattern(d.str())
	p.Alg2D = core.Pattern2D(d.str())
	p.P = int(d.varint())
	p.Width = int(d.varint())
	p.Height = int(d.varint())
	p.B = int(d.varint())
	p.Op = fabric.ReduceOp(d.byte())
	p.Opt = getOptions(d)
	p.Predicted = d.f64()
	specBytes := d.bytes()
	if d.err != nil {
		return nil, "", fmt.Errorf("planstore: decode: %v", d.err)
	}
	p.Spec = fabric.NewSpec(1, 1)
	if err := p.Spec.UnmarshalBinary(specBytes); err != nil {
		return nil, "", fmt.Errorf("planstore: decode: %w", err)
	}
	if p.Tree, err = getTree(d); err != nil {
		return nil, "", err
	}
	if p.RowTree, err = getTree(d); err != nil {
		return nil, "", err
	}
	if p.ColTree, err = getTree(d); err != nil {
		return nil, "", err
	}
	nc := int(d.uvarint())
	if d.err == nil && nc > 0 {
		if nc > d.remaining() || nc > mesh.NumColors {
			return nil, "", fmt.Errorf("planstore: decode: %d colors", nc)
		}
		p.Colors = make([]mesh.Color, nc)
		for i := range p.Colors {
			p.Colors[i] = mesh.Color(d.byte())
		}
	}
	if d.err != nil {
		return nil, "", fmt.Errorf("planstore: decode: %v", d.err)
	}
	if version == tapelessVersion && d.remaining() != 0 {
		return nil, "", fmt.Errorf("planstore: decode: %d trailing payload bytes", d.remaining())
	}
	if err := p.Spec.Validate(); err != nil {
		return nil, "", fmt.Errorf("planstore: decoded spec invalid: %w", err)
	}
	if version == FormatVersion { // the rest of the payload, held to the spec just validated
		if err := getTape(d, p); err != nil {
			return nil, "", err
		}
	}
	return p, hex.EncodeToString(sum), nil
}

// getTape reads the tape section — the input lengths, then the tape, to the
// end of the payload — and hands the plan its tape. The section is held to
// the decoded program throughout: fabric.DecodeTape takes the image layout
// from the spec and range-checks every run against it, Plan.SetTape
// requires the lengths to be the plan's own input layout and the image to be
// what the program lays out for them.
func getTape(d *dec, p *plan.Plan) error {
	n := d.uvarint()
	if d.err != nil || n > uint64(d.remaining()) {
		return fmt.Errorf("planstore: decode tape: input lengths truncated")
	}
	lens := make([]int, n)
	for j := range lens {
		v := d.uvarint()
		if v > math.MaxInt32 {
			return fmt.Errorf("planstore: decode tape: input %d of %d elements", j, v)
		}
		lens[j] = int(v)
	}
	if d.err != nil {
		return fmt.Errorf("planstore: decode tape: %v", d.err)
	}
	tape, err := fabric.DecodeTape(p.Spec, d.buf[d.off:])
	if err != nil {
		return fmt.Errorf("planstore: decode tape: %w", err)
	}
	if err := p.SetTape(tape, lens); err != nil {
		return fmt.Errorf("planstore: decode tape: %w", err)
	}
	return nil
}

// DecodeKey reads just the plan key from an encoded blob, after header
// and content-hash verification but without decoding the plan body. The
// key section leads the payload exactly so the store can rebuild its
// index from a directory of blobs without paying a full decode per blob —
// and corrupt blobs are caught (and quarantined) at open time rather than
// on the serving path.
func DecodeKey(data []byte) (plan.Key, error) {
	payload, _, err := checkHeader(data)
	if err != nil {
		return plan.Key{}, err
	}
	return getKey(&dec{buf: payload})
}

// checkHeader validates the fixed header and returns the payload slice
// and the recorded SHA-256 after verifying it matches the payload.
func checkHeader(data []byte) (payload, sum []byte, err error) {
	if len(data) < headerLen {
		return nil, nil, fmt.Errorf("planstore: %d bytes is shorter than the %d-byte header", len(data), headerLen)
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, nil, fmt.Errorf("planstore: bad magic %q", data[:8])
	}
	// A version-1 frame sets no flag, a later one exactly flagTape (a plan
	// without a tape is a version-1 frame): one encoding per plan.
	wantFlags := byte(0)
	switch v := binary.LittleEndian.Uint16(data[8:10]); v {
	case tapelessVersion:
	case eventsVersion, FormatVersion:
		wantFlags = flagTape
	default:
		return nil, nil, fmt.Errorf("planstore: format version %d, this build reads up to %d", v, FormatVersion)
	}
	if data[10] != endianLittle {
		return nil, nil, fmt.Errorf("planstore: unknown endianness marker %#x", data[10])
	}
	if data[11] != wantFlags {
		return nil, nil, fmt.Errorf("planstore: flags byte %#x on a version-%d frame, want %#x", data[11], binary.LittleEndian.Uint16(data[8:10]), wantFlags)
	}
	plen := binary.LittleEndian.Uint64(data[12:20])
	if plen != uint64(len(data)-headerLen) {
		return nil, nil, fmt.Errorf("planstore: payload length %d, file carries %d", plen, len(data)-headerLen)
	}
	sum = data[20:headerLen]
	payload = data[headerLen:]
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return nil, nil, fmt.Errorf("planstore: content hash mismatch: blob is corrupt or tampered")
	}
	return payload, sum, nil
}

func putKey(e *enc, k plan.Key) {
	e.str(string(k.Kind))
	e.str(string(k.Alg))
	e.str(string(k.Alg2D))
	e.varint(int64(k.P))
	e.varint(int64(k.Width))
	e.varint(int64(k.Height))
	e.varint(int64(k.B))
	e.byte(byte(k.Op))
	e.varint(int64(k.Opt.TR))
	e.varint(int64(k.Opt.QueueCap))
	e.varint(k.Opt.MaxCycles)
	e.varint(k.Opt.ClockSkewMax)
	e.f64(k.Opt.ThermalNoopRate)
	e.varint(int64(k.Opt.TaskActivation))
	e.u64(k.Opt.Seed)
	e.varint(int64(k.Opt.Shards))
}

func getKey(d *dec) (plan.Key, error) {
	k := plan.Key{
		Kind:   plan.Kind(d.str()),
		Alg:    core.Pattern(d.str()),
		Alg2D:  core.Pattern2D(d.str()),
		P:      int(d.varint()),
		Width:  int(d.varint()),
		Height: int(d.varint()),
		B:      int(d.varint()),
		Op:     fabric.ReduceOp(d.byte()),
	}
	k.Opt = plan.OptKey{
		TR:              int(d.varint()),
		QueueCap:        int(d.varint()),
		MaxCycles:       d.varint(),
		ClockSkewMax:    d.varint(),
		ThermalNoopRate: d.f64(),
		TaskActivation:  int(d.varint()),
		Seed:            d.u64(),
		Shards:          int(d.varint()),
	}
	if d.err != nil {
		return plan.Key{}, fmt.Errorf("planstore: decode key: %v", d.err)
	}
	return k, nil
}

func putOptions(e *enc, o fabric.Options) {
	e.varint(int64(o.TR))
	e.varint(int64(o.QueueCap))
	e.varint(o.MaxCycles)
	e.varint(o.ClockSkewMax)
	e.f64(o.ThermalNoopRate)
	e.varint(int64(o.TaskActivation))
	e.u64(o.Seed)
	e.varint(int64(o.Shards))
	// The Tracer is a process-local debug attachment; it does not persist.
}

func getOptions(d *dec) fabric.Options {
	return fabric.Options{
		TR:              int(d.varint()),
		QueueCap:        int(d.varint()),
		MaxCycles:       d.varint(),
		ClockSkewMax:    d.varint(),
		ThermalNoopRate: d.f64(),
		TaskActivation:  int(d.varint()),
		Seed:            d.u64(),
		Shards:          int(d.varint()),
	}
}

func putTree(e *enc, t comm.Tree) {
	e.uvarint(uint64(len(t.Parent)))
	for _, v := range t.Parent {
		e.varint(int64(v))
	}
}

func getTree(d *dec) (comm.Tree, error) {
	n := int(d.uvarint())
	if d.err != nil || n < 0 || n > d.remaining() {
		return comm.Tree{}, fmt.Errorf("planstore: decode tree: truncated")
	}
	if n == 0 {
		return comm.Tree{}, nil
	}
	t := comm.Tree{Parent: make([]int, n)}
	for i := range t.Parent {
		t.Parent[i] = int(d.varint())
	}
	if d.err != nil {
		return comm.Tree{}, fmt.Errorf("planstore: decode tree: %v", d.err)
	}
	if t.Parent[0] != -1 {
		return comm.Tree{}, fmt.Errorf("planstore: decode tree: root parent %d", t.Parent[0])
	}
	for v := 1; v < n; v++ {
		if t.Parent[v] < 0 || t.Parent[v] >= n {
			return comm.Tree{}, fmt.Errorf("planstore: decode tree: vertex %d has parent %d", v, t.Parent[v])
		}
	}
	return t, nil
}

// enc appends primitive values to a growing payload buffer.
type enc struct {
	buf []byte
}

func (e *enc) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) u64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) f64(v float64)    { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *enc) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// dec reads primitive values, latching the first error.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated at offset %d", d.off)
	}
}

func (d *dec) byte() byte {
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// uvarint reads an unsigned varint in its shortest encoding; a padded one
// (final byte zero) is a decode error, so every value has one byte form
// and a decoded plan re-encodes to the bytes it came from.
func (d *dec) uvarint() uint64 {
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
func (d *dec) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *dec) u64() uint64 {
	if d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(d.remaining()) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(d.remaining()) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

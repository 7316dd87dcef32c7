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

	"repro/internal/bincodec"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/plan"
)

// FormatVersion is the plan blob layout version this build reads and
// writes; a blob of any other version is refused, so a store of an earlier
// build's blobs quarantines them at Open and recompiles on a miss. A frame
// whose plan holds a replay tape (plan/tape.go) sets flagTape in the
// header's flags byte and appends the tape section (fabric/tapecodec.go)
// after the plan; a frame without the flag ends after the plan. One encoding
// per plan. Version 5 writes the spec's placement as runs
// (fabric.SpecCodecVersion 3) and a tape section that leaves out what the
// program and the kind's input layout determine: the input lengths and every
// PE's accumulator length. Version 4 listed each distinct PE program once
// (spec layout 2), then a record per PE; versions 1 to 3 spelled out every
// PE's program.
const FormatVersion = 5

const flagTape = 0x01 // header flags: a tape section follows the plan

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
	tape := p.Tape()
	e := &bincodec.Encoder{Buf: make([]byte, headerLen, headerLen+frameRoom(p, tape))}
	putKey(e, p.Key)
	e.Str(string(p.Kind))
	e.Str(string(p.Alg))
	e.Str(string(p.Alg2D))
	e.Varint(int64(p.P))
	e.Varint(int64(p.Width))
	e.Varint(int64(p.Height))
	e.Varint(int64(p.B))
	e.Byte(byte(p.Op))
	putOptions(e, p.Opt)
	e.F64(p.Predicted)
	// The spec section is built in place, then its length is put before it.
	at := len(e.Buf)
	var err error
	if e.Buf, err = p.Spec.AppendBinary(e.Buf); err != nil {
		return nil, "", fmt.Errorf("planstore: encode spec: %w", err)
	}
	e.Prefix(at)
	putTree(e, p.Tree)
	putTree(e, p.RowTree)
	putTree(e, p.ColTree)
	e.Uvarint(uint64(len(p.Colors)))
	for _, c := range p.Colors {
		e.Byte(byte(c))
	}
	if tape != nil {
		e.Buf = tape.AppendBinary(e.Buf)
	}
	return e.Buf, seal(e.Buf, tape != nil), nil
}

// frameRoom is room for the payload Encode writes: the spec and tape
// sections as their SizeHints estimate them, the trees at the length of
// their largest index, and the key and
// the echo of the request, which spell the three names twice, at
// fixedBytes besides the names. A frame that runs longer grows its buffer
// once; TestEncodeSizesItsFrame holds the estimate to the benchmark's cold
// frames.
func frameRoom(p *plan.Plan, tape *fabric.Tape) int {
	room := fixedBytes + 2*(len(p.Kind)+len(p.Alg)+len(p.Alg2D)) +
		binary.MaxVarintLen64 + p.Spec.SizeHint() + 1 + len(p.Colors)
	for _, t := range []comm.Tree{p.Tree, p.RowTree, p.ColTree} {
		room += (1 + len(t.Parent)) * bincodec.VarintLen(int64(len(t.Parent)))
	}
	if tape != nil {
		room += tape.SizeHint()
	}
	return room
}

// fixedBytes is room for the fields of a frame's payload that do not grow
// with the fabric, its names aside: four 8-byte floats and seeds, six name
// lengths and some two dozen varints, which take 60 to 80 bytes.
const fixedBytes = 96

// seal completes a frame whose payload follows headerLen reserved bytes: it
// fills in the fixed header carrying the flags (set by whether a tape
// section ends the payload), the payload's length and its SHA-256, and
// returns the hex digest.
func seal(frame []byte, tape bool) string {
	flags := byte(0)
	if tape {
		flags = flagTape
	}
	payload := frame[headerLen:]
	sum := sha256.Sum256(payload)
	hdr := append(frame[:0], magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, FormatVersion)
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
	d := bincodec.NewDecoder(payload)
	key, err := getKey(d)
	if err != nil {
		return nil, "", err
	}
	p := &plan.Plan{Key: key}
	p.Kind = plan.Kind(d.Str())
	p.Alg = core.Pattern(d.Str())
	p.Alg2D = core.Pattern2D(d.Str())
	p.P = int(d.Varint())
	p.Width = int(d.Varint())
	p.Height = int(d.Varint())
	p.B = int(d.Varint())
	p.Op = fabric.ReduceOp(d.Byte())
	p.Opt = getOptions(d)
	p.Predicted = d.F64()
	specBytes := d.Bytes()
	if d.Err() != nil {
		return nil, "", fmt.Errorf("planstore: decode: %v", d.Err())
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
	if nc := d.Uvarint(); nc > 0 { // zero when the count is unreadable
		if nc > uint64(d.Remaining()) || nc > mesh.NumColors {
			return nil, "", fmt.Errorf("planstore: decode: %d colors", nc)
		}
		p.Colors = make([]mesh.Color, nc)
		for i := range p.Colors {
			p.Colors[i] = mesh.Color(d.Byte())
		}
	}
	if d.Err() != nil {
		return nil, "", fmt.Errorf("planstore: decode: %v", d.Err())
	}
	taped := data[11] == flagTape
	if !taped && d.Remaining() != 0 {
		return nil, "", fmt.Errorf("planstore: decode: %d trailing payload bytes", d.Remaining())
	}
	if err := p.Spec.Validate(); err != nil {
		return nil, "", fmt.Errorf("planstore: decoded spec invalid: %w", err)
	}
	if taped { // the rest of the payload, held to the spec just validated
		if err := getTape(d, p); err != nil {
			return nil, "", err
		}
	}
	return p, hex.EncodeToString(sum), nil
}

// getTape hands the plan the tape section, the rest of the payload. The
// section is held to the decoded program: Plan.SetTape lays the image out
// from the program and the kind's input layout, and fabric.DecodeTape
// range-checks every run against it.
func getTape(d *bincodec.Decoder, p *plan.Plan) error {
	if err := p.SetTape(d.Rest()); err != nil {
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
	return getKey(bincodec.NewDecoder(payload))
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
	if v := binary.LittleEndian.Uint16(data[8:10]); v != FormatVersion {
		return nil, nil, fmt.Errorf("planstore: format version %d, this build reads %d", v, FormatVersion)
	}
	if data[10] != endianLittle {
		return nil, nil, fmt.Errorf("planstore: unknown endianness marker %#x", data[10])
	}
	if data[11]&^flagTape != 0 {
		return nil, nil, fmt.Errorf("planstore: flags byte %#x, this build knows %#x", data[11], flagTape)
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

func putKey(e *bincodec.Encoder, k plan.Key) {
	e.Str(string(k.Kind))
	e.Str(string(k.Alg))
	e.Str(string(k.Alg2D))
	e.Varint(int64(k.P))
	e.Varint(int64(k.Width))
	e.Varint(int64(k.Height))
	e.Varint(int64(k.B))
	e.Byte(byte(k.Op))
	e.Varint(int64(k.Opt.TR))
	e.Varint(int64(k.Opt.QueueCap))
	e.Varint(k.Opt.MaxCycles)
	e.Varint(k.Opt.ClockSkewMax)
	e.F64(k.Opt.ThermalNoopRate)
	e.Varint(int64(k.Opt.TaskActivation))
	e.U64(k.Opt.Seed)
	e.Varint(int64(k.Opt.Shards))
}

func getKey(d *bincodec.Decoder) (plan.Key, error) {
	k := plan.Key{
		Kind:   plan.Kind(d.Str()),
		Alg:    core.Pattern(d.Str()),
		Alg2D:  core.Pattern2D(d.Str()),
		P:      int(d.Varint()),
		Width:  int(d.Varint()),
		Height: int(d.Varint()),
		B:      int(d.Varint()),
		Op:     fabric.ReduceOp(d.Byte()),
	}
	k.Opt = plan.OptKey{
		TR:              int(d.Varint()),
		QueueCap:        int(d.Varint()),
		MaxCycles:       d.Varint(),
		ClockSkewMax:    d.Varint(),
		ThermalNoopRate: d.F64(),
		TaskActivation:  int(d.Varint()),
		Seed:            d.U64(),
		Shards:          int(d.Varint()),
	}
	if d.Err() != nil {
		return plan.Key{}, fmt.Errorf("planstore: decode key: %v", d.Err())
	}
	if err := k.CheckTR(); err != nil {
		return plan.Key{}, fmt.Errorf("planstore: decode key: %w", err)
	}
	return k, nil
}

func putOptions(e *bincodec.Encoder, o fabric.Options) {
	e.Varint(int64(o.TR))
	e.Varint(int64(o.QueueCap))
	e.Varint(o.MaxCycles)
	e.Varint(o.ClockSkewMax)
	e.F64(o.ThermalNoopRate)
	e.Varint(int64(o.TaskActivation))
	e.U64(o.Seed)
	e.Varint(int64(o.Shards))
	// The Tracer is a process-local debug attachment; it does not persist.
}

func getOptions(d *bincodec.Decoder) fabric.Options {
	return fabric.Options{
		TR:              int(d.Varint()),
		QueueCap:        int(d.Varint()),
		MaxCycles:       d.Varint(),
		ClockSkewMax:    d.Varint(),
		ThermalNoopRate: d.F64(),
		TaskActivation:  int(d.Varint()),
		Seed:            d.U64(),
		Shards:          int(d.Varint()),
	}
}

func putTree(e *bincodec.Encoder, t comm.Tree) {
	e.Uvarint(uint64(len(t.Parent)))
	for _, v := range t.Parent {
		e.Varint(int64(v))
	}
}

func getTree(d *bincodec.Decoder) (comm.Tree, error) {
	n := d.Uvarint()
	if d.Err() != nil || n > uint64(d.Remaining()) {
		return comm.Tree{}, fmt.Errorf("planstore: decode tree: truncated")
	}
	if n == 0 {
		return comm.Tree{}, nil
	}
	t := comm.Tree{Parent: make([]int, n)}
	for i := range t.Parent {
		t.Parent[i] = int(d.Varint())
	}
	if d.Err() != nil {
		return comm.Tree{}, fmt.Errorf("planstore: decode tree: %v", d.Err())
	}
	if t.Parent[0] != -1 {
		return comm.Tree{}, fmt.Errorf("planstore: decode tree: root parent %d", t.Parent[0])
	}
	for v := 1; v < len(t.Parent); v++ {
		if t.Parent[v] < 0 || t.Parent[v] >= len(t.Parent) {
			return comm.Tree{}, fmt.Errorf("planstore: decode tree: vertex %d has parent %d", v, t.Parent[v])
		}
	}
	return t, nil
}

package planstore

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bincodec"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/plan"
)

// noisyOpt exercises the RNG chain: clock skew and thermal no-ops both
// draw from the seeded per-PE RNG, so a decoded plan only replays
// bit-identically if the codec preserves every option exactly.
var noisyOpt = fabric.Options{ClockSkewMax: 3, ThermalNoopRate: 0.01, Seed: 7}

// kindRequests returns one request per collective kind, parameterised by
// the fabric options, the middle root's fold beside its halves, and last an
// Auto AllReduce the model roots in the middle: a plan whose key says allreduce1d and whose program is the
// allreduce-midroot row's.
func kindRequests(opt fabric.Options) []plan.Request {
	return []plan.Request{
		{Kind: plan.Reduce1D, Alg: core.AutoGen, P: 12, B: 9, Op: fabric.OpSum, Opt: opt},
		{Kind: plan.AllReduce1D, Alg: core.Ring, P: 8, B: 16, Op: fabric.OpSum, Opt: opt},
		{Kind: plan.Broadcast1D, P: 9, B: 7, Opt: opt},
		{Kind: plan.Reduce2D, Alg2D: core.Snake, Width: 4, Height: 3, B: 6, Op: fabric.OpMax, Opt: opt},
		{Kind: plan.AllReduce2D, Alg2D: core.Auto2D, Width: 3, Height: 4, B: 5, Op: fabric.OpSum, Opt: opt},
		{Kind: plan.Broadcast2D, Width: 5, Height: 2, B: 4, Opt: opt},
		{Kind: plan.Scatter, P: 6, B: 14, Opt: opt},
		{Kind: plan.Gather, P: 5, B: 11, Opt: opt},
		{Kind: plan.ReduceScatter, P: 6, B: 13, Op: fabric.OpSum, Opt: opt},
		{Kind: plan.AllGather, P: 4, B: 10, Opt: opt},
		{Kind: plan.AllReduceMidRoot, Alg: core.Tree, P: 9, B: 8, Op: fabric.OpMin, Opt: opt},
		{Kind: plan.AllReduceMidRoot, Alg: core.Fold, P: 7, B: 6, Op: fabric.OpMax, Opt: opt},
		{Kind: plan.AllReduce1D, Alg: core.Auto, P: 33, B: 1, Op: fabric.OpSum, Opt: opt},
	}
}

// inputsFor builds deterministic inputs of the right arity for a plan.
func inputsFor(p *plan.Plan) [][]float32 {
	vec := func(n int, seed float32) []float32 {
		v := make([]float32, n)
		for j := range v {
			v[j] = seed + float32(j%5) + 0.25
		}
		return v
	}
	switch p.Kind {
	case plan.Broadcast1D, plan.Broadcast2D, plan.Scatter:
		return [][]float32{vec(p.B, 1)}
	case plan.Gather, plan.AllGather:
		off, sz := core.Chunks(p.P, p.B)
		full := vec(p.B, 2)
		out := make([][]float32, p.P)
		for j := range out {
			out[j] = full[off[j] : off[j]+sz[j]]
		}
		return out
	case plan.Reduce2D, plan.AllReduce2D:
		out := make([][]float32, p.Width*p.Height)
		for i := range out {
			out[i] = vec(p.B, float32(i))
		}
		return out
	default:
		out := make([][]float32, p.P)
		for i := range out {
			out[i] = vec(p.B, float32(i))
		}
		return out
	}
}

// TestRoundTripAllKinds is the round-trip property of the ISSUE's
// acceptance criteria: for every collective kind, Decode(Encode(plan))
// replays bit-identically to the freshly compiled plan — same per-PE
// results, same cycle counts, same RNG-driven noise — and the encoding
// itself is deterministic and a fixed point under decode→encode.
func TestRoundTripAllKinds(t *testing.T) {
	for _, req := range kindRequests(noisyOpt) {
		req := req
		t.Run(string(req.Kind), func(t *testing.T) {
			compiled, err := plan.Compile(req)
			if err != nil {
				t.Fatal(err)
			}
			data, hash, err := Encode(compiled)
			if err != nil {
				t.Fatal(err)
			}
			data2, hash2, err := Encode(compiled)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, data2) || hash != hash2 {
				t.Fatal("encoding the same plan twice differs")
			}
			decoded, gotHash, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if gotHash != hash {
				t.Fatalf("decode reports hash %s, encode said %s", gotHash, hash)
			}
			if decoded.Key != compiled.Key {
				t.Fatalf("key changed in flight:\n got %v\nwant %v", decoded.Key, compiled.Key)
			}
			if key, err := DecodeKey(data); err != nil || key != compiled.Key {
				t.Fatalf("DecodeKey = %v, %v; want %v", key, err, compiled.Key)
			}
			// The key is the request as spelled; what the plan lowered — the
			// row, the algorithm, its trees — travels beside it.
			if req.Alg == core.Auto && (compiled.Key.Kind != plan.AllReduce1D || compiled.Kind != plan.AllReduceMidRoot || compiled.ColTree.Len() == 0) {
				t.Fatalf("the Auto AllReduce compiled to %s/%s with an east tree of %d under a %s key, want the middle root", compiled.Kind, compiled.Alg, compiled.ColTree.Len(), compiled.Key.Kind)
			}
			if decoded.Kind != compiled.Kind || decoded.Alg != compiled.Alg || decoded.Alg2D != compiled.Alg2D ||
				!reflect.DeepEqual([]comm.Tree{decoded.Tree, decoded.RowTree, decoded.ColTree}, []comm.Tree{compiled.Tree, compiled.RowTree, compiled.ColTree}) {
				t.Fatalf("decoded plan lowers %s/%s/%s, compiled %s/%s/%s (or their trees differ)", decoded.Kind, decoded.Alg, decoded.Alg2D, compiled.Kind, compiled.Alg, compiled.Alg2D)
			}
			// Decode→encode is byte-identical: the canonical form is a
			// fixed point, so re-saving a loaded plan never rewrites it.
			redata, rehash, err := Encode(decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, redata) || rehash != hash {
				t.Fatal("decode→encode is not byte-identical")
			}

			inputs := inputsFor(compiled)
			for rep := 0; rep < 2; rep++ { // replay twice: the recording run too
				want, err := compiled.Execute(inputs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := decoded.Execute(inputs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("replay %d of decoded plan differs:\n got %+v\nwant %+v", rep, got, want)
				}
			}
		})
	}
}

// TestTamperedBlobRejected flips single bytes across the blob — magic,
// version, digest, payload — and checks every mutation is rejected, along
// with truncations and trailing garbage.
func TestTamperedBlobRejected(t *testing.T) {
	compiled, err := plan.Compile(kindRequests(fabric.Options{})[0])
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := Encode(compiled)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	// A spread of offsets: every header byte, then strides through the
	// payload.
	var offsets []int
	for i := 0; i < headerLen; i++ {
		offsets = append(offsets, i)
	}
	for i := headerLen; i < len(data); i += 1 + len(data)/97 {
		offsets = append(offsets, i)
	}
	for _, off := range offsets {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, _, err := Decode(bad); err == nil {
			t.Fatalf("flipped bit at offset %d accepted", off)
		}
	}
	for _, n := range []int{0, 1, headerLen - 1, headerLen, len(data) / 2, len(data) - 1} {
		if _, _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// colorFrame is a reduce1d P = 4 frame without a tape, sealed under a
// correct digest, whose color section is the count given followed by the
// colors given in place of the plan's own.
func colorFrame(tb testing.TB, count uint64, colors ...byte) []byte {
	tb.Helper()
	p, err := plan.Compile(plan.Request{Kind: plan.Reduce1D, Alg: core.Auto, P: 4, B: 4})
	if err != nil {
		tb.Fatal(err)
	}
	data, _, err := Encode(p)
	if err != nil {
		tb.Fatal(err)
	}
	if len(p.Colors) > 127 {
		tb.Fatalf("%d colors take a two-byte count", len(p.Colors))
	}
	e := &bincodec.Encoder{Buf: append([]byte(nil), data[headerLen:len(data)-1-len(p.Colors)]...)}
	e.Uvarint(count)
	return reframe(append(e.Buf, colors...), false)
}

// forgedColorCount is a frame whose color count is 2^64-1, with no color
// bytes after it. Read as an int the count once wrapped negative, the color
// loop was skipped, and the frame decoded with its colors dropped.
func forgedColorCount(tb testing.TB) []byte { return colorFrame(tb, math.MaxUint64) }

// placementFrame is a reduce1d P = 4 frame without a tape, sealed under a
// correct digest, whose spec section ends in the placement runs given, as
// index and cell-count pairs, in place of its own. The plan runs four
// programs, one a PE: its own runs are {1, 1}, {2, 1}, {3, 1}, {4, 1}.
func placementFrame(tb testing.TB, runs ...[2]uint64) []byte {
	tb.Helper()
	p, err := plan.Compile(plan.Request{Kind: plan.Reduce1D, Alg: core.Auto, P: 4, B: 4})
	if err != nil {
		tb.Fatal(err)
	}
	data, _, err := Encode(p)
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := p.Spec.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	own := []byte{4, 1, 1, 2, 1, 3, 1, 4, 1}
	at := bytes.Index(data, spec)
	if at < 0 || !bytes.HasSuffix(spec, own) {
		tb.Fatalf("the frame's spec section does not end in the runs %v", own)
	}
	placement := &bincodec.Encoder{}
	placement.Uvarint(uint64(len(runs)))
	for _, r := range runs {
		placement.Uvarint(r[0])
		placement.Uvarint(r[1])
	}
	e := &bincodec.Encoder{Buf: append([]byte(nil), data[headerLen:at-bincodec.UvarintLen(uint64(len(spec)))]...)}
	e.Str(string(spec[:len(spec)-len(own)]) + string(placement.Buf))
	return reframe(append(e.Buf, data[at+len(spec):]...), false)
}

// perPEFrame is a taped reduce1d P = 4 frame, sealed under a correct digest,
// whose tape section spells out what a version-4 section did after its
// counters: each PE's accumulator length (B = 4 each) and the clock count.
func perPEFrame(t *testing.T) []byte {
	t.Helper()
	p := tapedPlan(t, plan.Request{Kind: plan.Reduce1D, Alg: core.Auto, P: 4, B: 4})
	data, _, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	at := tapeSectionOf(t, p, data)
	d := bincodec.NewDecoder(data[at:])
	for range 7 { // cycles, six Stats counters
		d.Uvarint()
	}
	counters := at + len(data[at:]) - d.Remaining()
	payload := append(append([]byte(nil), data[headerLen:counters]...), 4, 4, 4, 4, 0)
	return reframe(append(payload, data[counters:]...), true)
}

// TestDecodeRejectsNonCanonicalFrames: a frame under a correct digest whose
// color count is more than the fabric has or the payload holds is one decode
// error, never a plan decoded without its colors; so is one whose placement
// the spec encoder never writes (fabric's TestSpecCodecRejectsNonCanonicalFrames
// holds the spec section alone to every rule), and one whose tape section
// still spells out the per-PE lengths that the program now determines
// (TestDecodeRejectsHostileTapeFrames holds the section to the rest).
func TestDecodeRejectsNonCanonicalFrames(t *testing.T) {
	if _, _, err := Decode(colorFrame(t, 2, 0, 1)); err != nil {
		t.Fatalf("a frame of two colors is refused: %v", err)
	}
	if _, _, err := Decode(placementFrame(t, [2]uint64{1, 1}, [2]uint64{2, 1}, [2]uint64{3, 1}, [2]uint64{4, 1})); err != nil {
		t.Fatalf("a frame of its own placement is refused: %v", err)
	}
	for _, c := range []struct {
		name, want string
		frame      []byte
	}{
		{"color count of 2^64-1", "18446744073709551615 colors", forgedColorCount(t)},
		{"color count over the fabric's", fmt.Sprintf("%d colors", mesh.NumColors+1), colorFrame(t, mesh.NumColors+1, make([]byte, mesh.NumColors+1)...)},
		{"color count over the bytes left", "3 colors", colorFrame(t, 3, 0, 1)},
		{"runs that overrun the region", "run 3 of 2 cells at cell 3 of 4", placementFrame(t, [2]uint64{1, 1}, [2]uint64{2, 1}, [2]uint64{3, 1}, [2]uint64{4, 2})},
		{"runs that fall short of the region", "the runs cover 3 of 4 cells", placementFrame(t, [2]uint64{1, 1}, [2]uint64{2, 1}, [2]uint64{3, 1})},
		{"adjacent runs of one index", "run 2 repeats index 2", placementFrame(t, [2]uint64{1, 1}, [2]uint64{2, 1}, [2]uint64{2, 1}, [2]uint64{3, 1})},
		{"an index past the program count", "run 3 runs program 4, the next unused is 3 of 4", placementFrame(t, [2]uint64{1, 1}, [2]uint64{2, 1}, [2]uint64{3, 1}, [2]uint64{5, 1})},
		{"a program no run uses", "1 of 4 programs run on no PE", placementFrame(t, [2]uint64{1, 1}, [2]uint64{2, 1}, [2]uint64{3, 2})},
		{"a tape section that still carries per-PE lengths", "run 0: kind 4, 0 elements", perPEFrame(t)},
	} {
		_, _, err := Decode(c.frame)
		if err == nil {
			t.Errorf("%s: frame accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: refused with %q, want it to say %q", c.name, err, c.want)
		}
	}
}

// TestContentAddressIsShapeSensitive spot-checks that distinct plans get
// distinct addresses while identical logical plans (compiled separately)
// share one — the property the store's deduplication rests on.
func TestContentAddressIsShapeSensitive(t *testing.T) {
	req := plan.Request{Kind: plan.Reduce1D, Alg: core.Chain, P: 8, B: 16, Op: fabric.OpSum}
	a, err := plan.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	_, ha, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	_, hb, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("two compiles of one request hash differently: %s vs %s", ha, hb)
	}
	seen := map[string]plan.Kind{ha: req.Kind}
	for _, mreq := range kindRequests(fabric.Options{}) {
		mp, err := plan.Compile(mreq)
		if err != nil {
			t.Fatal(err)
		}
		_, h, err := Encode(mp)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("%s and %s share address %s", mreq.Kind, prev, h)
		}
		seen[h] = mreq.Kind
	}
}

// TestDecodedPEsShareProgramStorage: the PEs of one program decode onto one
// copy of it, ops and routing table, each PE a placement entry naming it, so
// rewriting one PE's program (Spec.SetOps) reaches no other PE; and a spec
// stamped from the decoded plan (Plan.Stamp) shares its programs, so
// rewriting a stamped PE's ops and routes leaves the decoded plan as it was.
func TestDecodedPEsShareProgramStorage(t *testing.T) {
	frame, _, err := Encode(mustCompile(t, plan.Request{Kind: plan.Reduce1D, Alg: core.Auto, P: 64, B: 4}))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var a *fabric.Program
	var at, other mesh.Coord
	seen := make(map[*fabric.Program]mesh.Coord)
	p.Spec.Each(func(c mesh.Coord, prog *fabric.Program) {
		if a != nil || len(prog.Ops) == 0 || len(prog.Configs) == 0 {
			return
		}
		if first, ok := seen[prog]; ok {
			a, at, other = prog, c, first
		}
		seen[prog] = c
	})
	if a == nil {
		t.Fatalf("no two PEs of %d share a program: %d distinct", p.Spec.Len(), len(seen))
	}
	if cap(a.Ops) != len(a.Ops) || cap(a.Configs) != len(a.Configs) || cap(a.Configs[0].Cfgs) != len(a.Configs[0].Cfgs) {
		t.Fatal("a shared program can be appended to in place")
	}

	before, err := p.Spec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst := fabric.NewSpec(p.Spec.Width, p.Spec.Height)
	if err := p.Stamp(dst); err != nil {
		t.Fatal(err)
	}
	d := dst.At(at)
	if &d.Ops[0] != &a.Ops[0] {
		t.Fatal("a stamped PE holds a copy of its program's ops")
	}
	ops := append([]fabric.Op(nil), d.Ops...)
	ops[0].N++
	dst.SetOps(at, ops)
	dst.Append(at, fabric.Op{Kind: fabric.OpBusyWrite, N: 1})
	dst.AddConfig(at, d.Configs[0].Color, fabric.RouterConfig{Accept: mesh.Ramp})
	if after, _ := p.Spec.MarshalBinary(); !bytes.Equal(after, before) {
		t.Fatal("rewriting a stamped PE changed the decoded plan")
	}
	ops = a.Ops
	p.Spec.SetOps(at, nil)
	if b := p.Spec.At(other); b != a || len(b.Ops) != len(ops) || &b.Ops[0] != &ops[0] {
		t.Fatal("assigning one PE's ops reached another PE")
	}
}

// specSizes are the spec sections of the benchmark's cold-store shapes, and
// of one large grid, held at what they measure since the placement is
// written as runs (spec layout 3); was is the section when every PE's
// program was spelled out.
var specSizes = []struct {
	req      plan.Request
	was, max int
}{
	{plan.Request{Kind: plan.Reduce1D, Alg: core.Auto, P: 512, B: 4}, 17834, 2048},
	{plan.Request{Kind: plan.Reduce1D, Alg: core.TwoPhase, P: 512, B: 4}, 16436, 1254},
	{plan.Request{Kind: plan.AllReduce1D, Alg: core.Auto, P: 256, B: 4}, 12071, 1644},
	{plan.Request{Kind: plan.AllReduceMidRoot, Alg: core.TwoPhase, P: 257, B: 4}, 11865, 1174},
	{plan.Request{Kind: plan.Broadcast1D, P: 512, B: 4}, 10694, 64},
	{plan.Request{Kind: plan.Reduce2D, Alg2D: core.Auto2D, Width: 32, Height: 32, B: 4}, 34460, 2974},
	{plan.Request{Kind: plan.AllReduce2D, Alg2D: core.Auto2D, Width: 32, Height: 32, B: 4}, 48697, 6832},
	{plan.Request{Kind: plan.Broadcast2D, Width: 32, Height: 32, B: 4}, 20485, 101},
	{plan.Request{Kind: plan.Gather, P: 64, B: 64}, 2028, 623},
	{plan.Request{Kind: plan.Reduce2D, Alg2D: core.Auto2D, Width: 128, Height: 128, B: 4}, 549129, 32450},
}

// TestSpecFrameSizeRatchet holds the spec section of each specSizes shape to
// its ceiling: a program spelled out per PE again, or a field that grew, shows
// as bytes.
func TestSpecFrameSizeRatchet(t *testing.T) {
	for _, c := range specSizes {
		p := mustCompile(t, c.req)
		spec, err := p.Spec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		d := bincodec.NewDecoder(spec[1:])
		_, _, progs := d.Uvarint(), d.Uvarint(), d.Uvarint()
		pes := p.Spec.Len()
		r := c.req
		name := fmt.Sprintf("%s %s%s P=%d %dx%d B=%d", r.Kind, r.Alg, r.Alg2D, r.P, r.Width, r.Height, r.B)
		t.Logf("%s: %d PEs, %d distinct programs: spec section %d B (%d B spelled out)", name, pes, progs, len(spec), c.was)
		if len(spec) > c.max {
			t.Errorf("%v: spec section %d B, held to %d B (%d B when every PE's program was spelled out)", name, len(spec), c.max, c.was)
		}
	}
}

// TestEncodeSizesItsFrame: Encode sizes its buffer from what the plan holds
// (the spec's programs and PEs, the trees, the tape's runs), so encoding each
// cold-store shape's plan, tape included, allocates under 1.5 times the
// frame it returns. Each plan is encoded three times and the least counted:
// what other goroutines allocate meanwhile only adds.
func TestEncodeSizesItsFrame(t *testing.T) {
	for _, c := range specSizes[:9] {
		p := tapedPlan(t, c.req)
		if tape := p.Tape(); tape == nil {
			t.Fatalf("%v: no tape after two runs", c.req.Kind)
		}
		var frame []byte
		grew := uint64(math.MaxUint64)
		for range 3 {
			grew = min(grew, allocBytes(func() {
				var err error
				if frame, _, err = Encode(p); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%s: %d B frame, %d B allocated", c.req.Kind, len(frame), grew)
		if float64(grew) > 1.5*float64(len(frame)) {
			t.Errorf("%s %s%s: encoding a %d B frame allocates %d B", c.req.Kind, c.req.Alg, c.req.Alg2D, len(frame), grew)
		}
	}
}

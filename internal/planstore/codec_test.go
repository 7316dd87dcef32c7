package planstore

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

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
// copy of its ops and routing table, each PE keeping a header of its own, so
// assigning one PE's fields (Spec.PE) reaches no other PE; and a spec stamped
// from the decoded plan (Plan.Stamp) owns its copy of every program, so
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
	var a, b *fabric.PESpec
	var at mesh.Coord
	seen := make(map[*fabric.Op]*fabric.PESpec)
	p.Spec.Each(func(c mesh.Coord, pe *fabric.PESpec) {
		if a != nil || len(pe.Ops) == 0 || len(pe.Configs) == 0 {
			return
		}
		if first, ok := seen[&pe.Ops[0]]; ok {
			a, b, at = pe, first, c
		}
		seen[&pe.Ops[0]] = pe
	})
	if a == nil {
		t.Fatalf("no two PEs of %d share an op list: %d distinct", p.Spec.Len(), len(seen))
	}
	if a == b {
		t.Fatal("two PEs decode to one PESpec")
	}
	if &a.Configs[0] != &b.Configs[0] || !reflect.DeepEqual(a.Ops, b.Ops) {
		t.Fatal("two PEs of one op list hold different routing tables")
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
	d := dst.PE(at)
	d.Ops[0].N++
	d.Configs[0].Cfgs[0].Times++
	d.Ops = append(d.Ops, fabric.Op{Kind: fabric.OpBusyWrite, N: 1})
	d.AddConfig(d.Configs[0].Color, fabric.RouterConfig{Accept: mesh.Ramp})
	if after, _ := p.Spec.MarshalBinary(); !bytes.Equal(after, before) {
		t.Fatal("rewriting a stamped PE changed the decoded plan")
	}
	ops := b.Ops
	p.Spec.PE(at).Ops = nil
	if len(b.Ops) != len(ops) || &b.Ops[0] != &ops[0] {
		t.Fatal("assigning one PE's ops reached another PE")
	}
}

// specSizes are the spec sections of the benchmark's cold-store shapes, and
// of one large grid, held at what they measured when each distinct program
// came to be listed once (rounded up); was is the section when every PE's
// program was spelled out.
var specSizes = []struct {
	req      plan.Request
	was, max int
}{
	{plan.Request{Kind: plan.Reduce1D, Alg: core.Auto, P: 512, B: 4}, 17834, 3600},
	{plan.Request{Kind: plan.Reduce1D, Alg: core.TwoPhase, P: 512, B: 4}, 16436, 2800},
	{plan.Request{Kind: plan.AllReduce1D, Alg: core.Auto, P: 256, B: 4}, 12071, 2400},
	{plan.Request{Kind: plan.AllReduceMidRoot, Alg: core.TwoPhase, P: 257, B: 4}, 11865, 1900},
	{plan.Request{Kind: plan.Broadcast1D, P: 512, B: 4}, 10694, 2600},
	{plan.Request{Kind: plan.Reduce2D, Alg2D: core.Auto2D, Width: 32, Height: 32, B: 4}, 34460, 5200},
	{plan.Request{Kind: plan.AllReduce2D, Alg2D: core.Auto2D, Width: 32, Height: 32, B: 4}, 48697, 9100},
	{plan.Request{Kind: plan.Broadcast2D, Width: 32, Height: 32, B: 4}, 20485, 4200},
	{plan.Request{Kind: plan.Gather, P: 64, B: 64}, 2028, 900},
	{plan.Request{Kind: plan.Reduce2D, Alg2D: core.Auto2D, Width: 128, Height: 128, B: 4}, 549129, 83200},
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
		d := &dec{buf: spec, off: 1}
		_, _, pes, progs := d.uvarint(), d.uvarint(), d.uvarint(), d.uvarint()
		r := c.req
		name := fmt.Sprintf("%s %s%s P=%d %dx%d B=%d", r.Kind, r.Alg, r.Alg2D, r.P, r.Width, r.Height, r.B)
		t.Logf("%s: %d PEs, %d distinct programs: spec section %d B (%d B spelled out)", name, pes, progs, len(spec), c.was)
		if len(spec) > c.max {
			t.Errorf("%v: spec section %d B, held to %d B (%d B when every PE's program was spelled out)", name, len(spec), c.max, c.was)
		}
	}
}

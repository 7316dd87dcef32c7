package plan

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
)

// TestKeyEncodingPinned pins the exact textual key encoding the plan
// store's manifest and index are addressed by. If this test fails, plans
// stored by earlier releases will silently miss: either restore the
// encoding, or bump KeyEncodingVersion and accept orphaning old stores as
// a deliberate decision.
func TestKeyEncodingPinned(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{
			// The tracked benchmark shape under fully defaulted options:
			// TR, queue depth and cycle budget must appear resolved.
			"defaults-resolved",
			Request{Kind: Reduce1D, Alg: core.Auto, P: 512, B: 16, Op: fabric.OpSum},
			"k1;reduce1d;alg=auto;alg2d=;p=512;w=0;h=0;b=16;op=sum;tr=2;qcap=4;maxcyc=17179869184;skew=0;noop=0x0p+00;act=0;seed=0;shards=0",
		},
		{
			// Every option explicit, including a literal-zero ramp
			// (TR=-1, canonically too: tr=0 would select the default) and a thermal
			// rate that only hexadecimal float notation renders exactly.
			"all-options",
			Request{Kind: AllReduce2D, Alg2D: core.XYTree, Width: 8, Height: 4, B: 32, Op: fabric.OpMax,
				Opt: fabric.Options{TR: -1, QueueCap: 2, MaxCycles: 1 << 28, ClockSkewMax: 5,
					ThermalNoopRate: 0.25, TaskActivation: 3, Seed: 9, Shards: 4}},
			"k1;allreduce2d;alg=;alg2d=xy-tree;p=0;w=8;h=4;b=32;op=max;tr=-1;qcap=2;maxcyc=268435456;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
		},
		{
			// Algorithm-free chunked kind: Alg and the 2D fields are
			// canonically absent even if a caller sets them.
			"gather-canonical",
			Request{Kind: Gather, Alg: core.Chain, Alg2D: core.Snake, P: 16, Width: 3, Height: 3, B: 64},
			"k1;gather;alg=;alg2d=;p=16;w=0;h=0;b=64;op=sum;tr=2;qcap=4;maxcyc=17179869184;skew=0;noop=0x0p+00;act=0;seed=0;shards=0",
		},
	}
	for _, tc := range cases {
		if got := KeyOf(tc.req).String(); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}

// TestKeyCanonicalisation checks the default-resolution rules: requests
// that compile and execute identically must share one key, so stored
// plans keep hitting whatever equivalent spelling a caller uses.
func TestKeyCanonicalisation(t *testing.T) {
	base := Request{Kind: Reduce1D, Alg: core.Chain, P: 8, B: 16, Op: fabric.OpSum}
	equivalent := []struct {
		name string
		mut  func(Request) Request
	}{
		{"explicit-TR", func(r Request) Request { r.Opt.TR = fabric.DefaultTR; return r }},
		{"explicit-queue-cap", func(r Request) Request { r.Opt.QueueCap = fabric.DefaultQueueCap; return r }},
		{"explicit-max-cycles", func(r Request) Request { r.Opt.MaxCycles = fabric.DefaultMaxCycles; return r }},
		{"seed-without-noise", func(r Request) Request { r.Opt.Seed = 1234; return r }},
		{"irrelevant-2d-alg", func(r Request) Request { r.Alg2D = core.Snake; return r }},
		{"irrelevant-grid", func(r Request) Request { r.Width, r.Height = 9, 9; return r }},
	}
	want := KeyOf(base)
	for _, tc := range equivalent {
		if got := KeyOf(tc.mut(base)); got != want {
			t.Errorf("%s: key diverged:\n got  %s\n want %s", tc.name, got, want)
		}
	}
	// Op-free kinds ignore the reduction operator: a caller spelling
	// -op max on a gather must still hit the stored plan.
	for _, kind := range []Kind{Broadcast1D, Broadcast2D, Scatter, Gather, AllGather} {
		a := Request{Kind: kind, P: 8, Width: 4, Height: 2, B: 16}
		b := a
		b.Op = fabric.OpMax
		if KeyOf(a) != KeyOf(b) {
			t.Errorf("%s: operator changed the key of an op-free kind", kind)
		}
	}
	// And the inverse: options that change execution must change the key.
	distinct := []func(Request) Request{
		func(r Request) Request { r.Opt.TR = -1; return r },
		func(r Request) Request { r.Opt.Seed = 7; r.Opt.ClockSkewMax = 2; return r },
		func(r Request) Request { r.Opt.Shards = 2; return r },
		func(r Request) Request { r.Opt.Shards = 1; return r }, // serial, where 0 auto-tunes
		func(r Request) Request { r.Opt.ThermalNoopRate = 0.5; return r },
	}
	for i, mut := range distinct {
		if got := KeyOf(mut(base)); got == want {
			t.Errorf("distinct mutation %d collided with the base key", i)
		}
	}
}

// TestKeyRequestRoundTrip checks Key.Request is a right inverse of KeyOf:
// warming from a store's key list must re-derive exactly the stored keys.
func TestKeyRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Kind: Reduce1D, Alg: core.Auto, P: 512, B: 16, Op: fabric.OpSum},
		{Kind: Reduce1D, Alg: core.AutoGen, P: 32, B: 4, Op: fabric.OpMin,
			Opt: fabric.Options{TR: -1, Shards: 4, MaxCycles: 1 << 20}},
		{Kind: AllReduce2D, Alg2D: core.Auto2D, Width: 6, Height: 4, B: 8, Op: fabric.OpSum,
			Opt: fabric.Options{ClockSkewMax: 3, ThermalNoopRate: 0.125, Seed: 11}},
		{Kind: Broadcast1D, P: 64, B: 256},
		{Kind: AllGather, P: 16, B: 64},
	}
	for _, req := range reqs {
		k := KeyOf(req)
		if again := KeyOf(k.Request()); again != k {
			t.Errorf("KeyOf(k.Request()) drifted:\n got  %s\n want %s", again, k)
		}
	}
}

// TestParseKeyRoundTrip checks ParseKey is the inverse of Key.String: a
// key read back from its text must be the identical Key (and so address
// the identical plan) without the original request.
func TestParseKeyRoundTrip(t *testing.T) {
	reqs := []Request{
		{Kind: Reduce1D, Alg: core.Auto, P: 512, B: 16, Op: fabric.OpSum},
		{Kind: AllReduce2D, Alg2D: core.XYTree, Width: 8, Height: 4, B: 32, Op: fabric.OpMax,
			Opt: fabric.Options{TR: -1, QueueCap: 2, MaxCycles: 1 << 28, ClockSkewMax: 5,
				ThermalNoopRate: 0.25, TaskActivation: 3, Seed: 9, Shards: 4}},
		{Kind: Gather, P: 16, B: 64},
		{Kind: Reduce1D, Alg: core.AutoGen, P: 32, B: 4, Op: fabric.OpMin,
			Opt: fabric.Options{ThermalNoopRate: 0.1, Seed: 42}},
	}
	for _, req := range reqs {
		k := KeyOf(req)
		got, err := ParseKey(k.String())
		if err != nil {
			t.Errorf("ParseKey(%q): %v", k.String(), err)
			continue
		}
		if got != k {
			t.Errorf("ParseKey round trip drifted:\n got  %#v\n want %#v", got, k)
		}
	}
}

// TestParseKeyRejects checks the malformed-key taxonomy: wrong version,
// wrong field count, misnamed or unparseable fields all error instead of
// silently producing a wrong (and then cached, and then served) key.
func TestParseKeyRejects(t *testing.T) {
	good := KeyOf(Request{Kind: Reduce1D, Alg: core.Auto, P: 8, B: 4, Op: fabric.OpSum}).String()
	bad := []struct {
		name, key string
	}{
		{"empty", ""},
		{"garbage", "not a key"},
		{"wrong-version", "k9" + good[2:]},
		{"truncated", good[:len(good)-10]},
		{"reordered-field", replaceOnce(good, "qcap=", "paqc=")},
		{"bad-op", replaceOnce(good, "op=sum", "op=avg")},
		{"bad-int", replaceOnce(good, "p=8", "p=eight")},
		{"bad-float", replaceOnce(good, "noop=0x0p+00", "noop=zero")},
		{"nan-float", replaceOnce(good, "noop=0x0p+00", "noop=NaN")},
		// An earlier build's zero-latency key: read back, its request
		// would compile the default ramp's plan under it.
		{"zero-tr", replaceOnce(good, "tr=2", "tr=0")},
	}
	for _, tc := range bad {
		if _, err := ParseKey(tc.key); err == nil {
			t.Errorf("%s: ParseKey(%q) accepted a malformed key", tc.name, tc.key)
		}
	}
	if _, err := ParseKey(good); err != nil {
		t.Fatalf("control: ParseKey rejected a good key: %v", err)
	}
}

func replaceOnce(s, old, new string) string {
	return strings.Replace(s, old, new, 1)
}

// FuzzParseKey: ParseKey takes arbitrary text. It must never panic, and
// every key it accepts must survive its own rendering: ParseKey(k.String())
// == k, or the text would address a different plan than the one it names.
func FuzzParseKey(f *testing.F) {
	for _, req := range []Request{ // the keys TestKeyEncodingPinned pins
		{Kind: Reduce1D, Alg: core.Auto, P: 512, B: 16, Op: fabric.OpSum},
		{Kind: AllReduce2D, Alg2D: core.XYTree, Width: 8, Height: 4, B: 32, Op: fabric.OpMax,
			Opt: fabric.Options{TR: -1, QueueCap: 2, MaxCycles: 1 << 28, ClockSkewMax: 5,
				ThermalNoopRate: 0.25, TaskActivation: 3, Seed: 9, Shards: 4}},
		{Kind: Gather, Alg: core.Chain, Alg2D: core.Snake, P: 16, Width: 3, Height: 3, B: 64},
	} {
		f.Add(KeyOf(req).String())
	}
	f.Add("")
	f.Add(replaceOnce(KeyOf(Request{Kind: Reduce1D, P: 8, B: 4}).String(), "noop=0x0p+00", "noop=nan")) // must be rejected: NaN != NaN
	f.Add("k1;reduce1d;alg==;alg2d=;p=+1;w=-0;h=0;b=1;op=min;tr=-1;qcap=0;maxcyc=-1;skew=0;noop=-Inf;act=0;seed=18446744073709551615;shards=0")
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKey(s)
		if err != nil {
			return
		}
		again, err := ParseKey(k.String())
		if err != nil {
			t.Fatalf("ParseKey accepted %q but rejects its rendering %q: %v", s, k.String(), err)
		}
		if again != k {
			t.Fatalf("ParseKey(%q) = %#v, whose rendering %q parses to %#v", s, k, k.String(), again)
		}
	})
}

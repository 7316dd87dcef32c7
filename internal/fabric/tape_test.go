package fabric

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

// referenceWalk is the tape's walk as it was before a tape held runs: the
// recorded events applied one at a time, in the engine's own order. It is
// what the run walk is held to, bit for bit.
func referenceWalk(events []tapeEvent, waves uint32, acc []float32) {
	tmp := make([]float32, waves)
	for _, e := range events {
		w := e.op & tapeWaveMask
		switch kind := e.op >> tapeKindShift; kind {
		case tapeLoad:
			tmp[w] = acc[e.acc]
		case tapeStore:
			acc[e.acc] = tmp[w]
		default:
			acc[e.acc] = ReduceOp(kind-tapeReduce).Apply(acc[e.acc], tmp[w])
		}
	}
}

// sameWalk holds the walk of the tape formed from a recording to the
// reference walk of the recording's events, on whole images of non-integer
// values, and returns the tape.
func sameWalk(t *testing.T, r *Recording, label string) *Tape {
	t.Helper()
	tape, err := r.Tape()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sum := 0
	for _, n := range tape.RunLens() {
		sum += n
	}
	if sum != r.Events() || tape.Events() != r.Events() {
		t.Fatalf("%s: %d runs move %d elements, Events() says %d, the recording has %d events", label, tape.Runs(), sum, tape.Events(), r.Events())
	}
	rng := rand.New(rand.NewSource(int64(r.Events())))
	for round := 0; round < 2; round++ { // the second reuses the parked wave buffer
		want, got := make([]float32, tape.AccLen()), make([]float32, tape.AccLen())
		for i := range want {
			want[i] = float32(rng.NormFloat64()) * 3.7
		}
		copy(got, want)
		r.ReferenceWalk(want)
		tape.Walk(got)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: image[%d] = %x after the run walk, %x after the reference walk", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	return tape
}

// scramble rebinds every Init of the spec to non-integer values, so a reduce
// applied in another order, or to another element, shows in the low bits.
func scramble(s *Spec, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s.Each(func(_ mesh.Coord, pe *PESpec) {
		for i := range pe.Init {
			pe.Init[i] = float32(rng.NormFloat64()) * 3.7
		}
	})
}

// tapeImage lays the spec's Init vectors out as the flat image Tape.Run
// takes: what a caller holding only inputs and the tape would build.
func tapeImage(t *testing.T, tape *Tape, s *Spec) []float32 {
	t.Helper()
	acc := make([]float32, tape.AccLen())
	if tape.Units() != s.Len() {
		t.Fatalf("the tape lays out %d PEs, the program has %d", tape.Units(), s.Len())
	}
	u := 0 // both walk the programmed PEs in row-major order
	s.Each(func(c mesh.Coord, pe *PESpec) {
		at, base, n := tape.Unit(u)
		u++
		if at != c || len(pe.Init) > n {
			t.Fatalf("PE %v: no room for %d initial elements in the image (unit at %v, base %d, %d)", c, len(pe.Init), at, base, n)
		}
		copy(acc[base:], pe.Init)
	})
	return acc
}

// sameBits is sameResult to the last bit, clocks and PE sets included.
func sameBits(t *testing.T, want, got *Result, label string) {
	t.Helper()
	sameResult(t, want, got, label)
	for c, w := range want.Acc {
		for i, g := range got.Acc[c] {
			if math.Float32bits(g) != math.Float32bits(w[i]) {
				t.Fatalf("%s: PE %v acc[%d] = %x, want %x", label, c, i, math.Float32bits(g), math.Float32bits(w[i]))
			}
		}
	}
	if len(got.Clocks) != len(want.Clocks) {
		t.Fatalf("%s: clocks of %d PEs, want %d", label, len(got.Clocks), len(want.Clocks))
	}
	for c, w := range want.Clocks {
		if len(got.Clocks[c]) != len(w) {
			t.Fatalf("%s: PE %v has %d clock samples, want %d", label, c, len(got.Clocks[c]), len(w))
		}
	}
}

// sampled prepends a clock sample to every program of the spec and appends
// another, so the tape has clock slots to carry.
func sampled(s *Spec) *Spec {
	s.Each(func(_ mesh.Coord, pe *PESpec) {
		if len(pe.Ops) == 0 {
			return
		}
		pe.ClockSlots = 2
		pe.Ops = append(append([]Op{{Kind: OpSampleClock, Slot: 0}}, pe.Ops...), Op{Kind: OpSampleClock, Slot: 1})
	})
	return s
}

// duplex builds two PEs exchanging vectors with the full-duplex op, PE 0
// reducing what it receives and PE 1 storing it past its own vector.
func duplex(b int) *Spec {
	s := NewSpec(2, 1)
	l, r := s.PE(mesh.Coord{}), s.PE(mesh.Coord{X: 1})
	l.Init, r.Init = make([]float32, b), make([]float32, b)
	l.Ops = []Op{{Kind: OpSendRecvReduce, Color: 1, OutColor: 0, N: b, N2: b, Reduce: OpMax}}
	l.AddConfig(0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East)})
	l.AddConfig(1, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	r.Ops = []Op{{Kind: OpSendRecvStore, Color: 0, OutColor: 1, N: b, Off2: b, N2: b}}
	r.AddConfig(0, RouterConfig{Accept: mesh.West, Forward: mesh.Dirs(mesh.Ramp)})
	r.AddConfig(1, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
	return s
}

// TestTapeReproducesRun: for programs covering every data-touching op, under
// options that steer the cycle loop down its different paths, a tape
// recorded on one set of inputs and run on another equals the engine's
// result on those — cycles, full Stats, clock samples and every accumulator
// bit — in the map and the columnar layout, also when the reference engine
// is the parallel one and the recording fabric is sharded; and its walk
// equals the reference walk of the events it was formed from.
func TestTapeReproducesRun(t *testing.T) {
	old := shardDispatchThreshold
	shardDispatchThreshold = 1
	defer func() { shardDispatchThreshold = old }()
	specs := []struct {
		name string
		spec func() *Spec
	}{
		{"two-pe-stream", func() *Spec { return twoPE(64) }},
		{"star-contended", func() *Spec { return sampled(starLike(13, 12)) }},
		{"chain-pipelined", func() *Spec { return chainLike(24, 20) }},
		{"grid-wavefront", func() *Spec { return sampled(gridBounce(6, 8, 10)) }},
		{"duplex", func() *Spec { return duplex(17) }},
	}
	opts := []Options{
		{},
		{ThermalNoopRate: 0.08, Seed: 5, ClockSkewMax: 128},
		{TaskActivation: 3, QueueCap: 1},
		{TR: -1, QueueCap: 8},
		{Shards: 3, QueueCap: 2},
	}
	for _, sc := range specs {
		for _, opt := range opts {
			label := fmt.Sprintf("%s %+v", sc.name, opt)
			spec := sc.spec()
			scramble(spec, 1)
			f, err := New(spec, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			raw, err := f.RecordRaw()
			if err != nil {
				t.Fatalf("%s: record: %v", label, err)
			}
			tape := sameWalk(t, raw, label)
			for seed := int64(2); seed < 4; seed++ {
				scramble(spec, seed)
				if err := f.Reset(spec); err != nil {
					t.Fatal(err)
				}
				want, err := f.Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameBits(t, want, tape.Run(tapeImage(t, tape, spec)), label)

				if err := f.Reset(spec); err != nil {
					t.Fatal(err)
				}
				var wantCol, gotCol ColumnarResult
				if err := f.RunColumnar(&wantCol); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				tape.RunColumnar(&gotCol, tapeImage(t, tape, spec))
				if gotCol.Cycles != wantCol.Cycles || gotCol.Stats != wantCol.Stats {
					t.Errorf("%s: columnar cycles %d stats %+v, want %d %+v", label, gotCol.Cycles, gotCol.Stats, wantCol.Cycles, wantCol.Stats)
				}
				if fmt.Sprint(gotCol.Coords, gotCol.Off) != fmt.Sprint(wantCol.Coords, wantCol.Off) {
					t.Fatalf("%s: columnar layout %v %v, want %v %v", label, gotCol.Coords, gotCol.Off, wantCol.Coords, wantCol.Off)
				}
				for i, w := range wantCol.Acc {
					if math.Float32bits(gotCol.Acc[i]) != math.Float32bits(w) {
						t.Fatalf("%s: columnar acc[%d] = %v, want %v", label, i, gotCol.Acc[i], w)
					}
				}
				if len(gotCol.Root) != len(wantCol.Root) || &gotCol.Root[0] != &gotCol.Acc[0] {
					t.Fatalf("%s: columnar root has %d elements at %p, want %d at %p", label, len(gotCol.Root), &gotCol.Root[0], len(wantCol.Root), &gotCol.Acc[0])
				}
			}
		}
	}
}

// TestRecordFailsLikeRun: a program the engine refuses is refused by Record
// with the very same diagnostic, and leaves no tape.
func TestRecordFailsLikeRun(t *testing.T) {
	excess := twoPE(8)
	excess.PE(mesh.Coord{}).Ops = []Op{{Kind: OpRecvStore, Color: 0, N: 4}}

	for name, tc := range map[string]struct {
		spec *Spec
		opt  Options
	}{
		"deadlock":           {starved(), Options{}},
		"protocol violation": {excess, Options{}},
		"cycle overrun":      {twoPE(64), Options{MaxCycles: 20}},
	} {
		f, err := New(tc.spec, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		_, want := f.Run()
		if want == nil {
			t.Fatalf("%s: the engine ran the program", name)
		}
		if err := f.Reset(tc.spec); err != nil {
			t.Fatal(err)
		}
		tape, err := f.Record()
		if tape != nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Record returned %v, %v; Run fails with %v", name, tape, err, want)
		}
	}
}

// TestRecordDeclinesLongPrograms: a program over the cap is refused before
// anything runs, so the same armed fabric still runs it on the engine.
func TestRecordDeclinesLongPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("a million-cycle run in -short mode")
	}
	b := MaxTapeEvents/2 + 1 // b loads at the sender, b stores at the receiver
	spec := twoPE(b)
	f, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tape, err := f.Record(); tape != nil || !errors.Is(err, ErrTapeTooLong) {
		t.Fatalf("Record of %d events returned %v, %v; want ErrTapeTooLong", 2*b, tape, err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Acc[mesh.Coord{}]; len(got) != b || got[b-1] != float32(b-1) {
		t.Fatalf("run after a declined recording stored %d elements ending in %v", len(got), got[len(got)-1])
	}
}

// pingPong builds two PEs that exchange element k before either sends k+1:
// PE 0 sends a[k], PE 1 folds it into b[k] and sends that back, PE 0 stores
// it as a[k+1] and sends it on the next round — a[k+1] = a[k] + b[k], every
// element waiting for the one before it to cross the link twice.
func pingPong(b int) *Spec {
	s := NewSpec(2, 1)
	l, r := s.PE(mesh.Coord{}), s.PE(mesh.Coord{X: 1})
	l.Init, r.Init = make([]float32, b+1), make([]float32, b)
	for k := 0; k < b; k++ {
		l.Ops = append(l.Ops, Op{Kind: OpSend, Color: 0, Off: k, N: 1}, Op{Kind: OpRecvStore, Color: 1, Off: k + 1, N: 1})
		r.Ops = append(r.Ops, Op{Kind: OpRecvReduce, Color: 0, Off: k, N: 1}, Op{Kind: OpSend, Color: 1, Off: k, N: 1})
	}
	l.AddConfig(0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East)})
	l.AddConfig(1, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	r.AddConfig(0, RouterConfig{Accept: mesh.West, Forward: mesh.Dirs(mesh.Ramp)})
	r.AddConfig(1, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
	return s
}

// TestFormRunsSplitsPingPong: where the dataflow itself is element by
// element, the former has nothing to merge. Neighbouring elements of both
// PEs see events of one kind — the stores of a[1], a[2], …, the folds into
// b[0], b[1], … — but each consumes a wave that is loaded only after the
// one before it was consumed, so merging any two would put a consume ahead
// of its load. The former must emit runs of one, in an order that still
// replays: neither a deadlock nor a reordering.
func TestFormRunsSplitsPingPong(t *testing.T) {
	const b = 9
	spec := pingPong(b)
	scramble(spec, 1)
	f, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.RecordRaw()
	if err != nil {
		t.Fatal(err)
	}
	tape := sameWalk(t, raw, "ping-pong")
	if tape.Events() != 4*b || tape.Runs() != 4*b {
		t.Fatalf("ping-pong of %d elements: %d events in %d runs, want %d runs of one", b, tape.Events(), tape.Runs(), 4*b)
	}
	scramble(spec, 2)
	if err := f.Reset(spec); err != nil {
		t.Fatal(err)
	}
	want, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, tape.Run(tapeImage(t, tape, spec)), "ping-pong")
	// The prefix sums did cross the link: a[b] = a[0] + b[0] + … + b[b-1].
	sum := spec.PE(mesh.Coord{}).Init[0]
	for _, v := range spec.PE(mesh.Coord{X: 1}).Init {
		sum += v
	}
	if got := want.Acc[mesh.Coord{}][b]; math.Abs(float64(got-sum)) > 1e-3 {
		t.Fatalf("ping-pong left a[%d] = %v, want about %v", b, got, sum)
	}
}

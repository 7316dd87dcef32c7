package plan

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
)

// canonicalKeys pins which fields each kind's key zeroes: the canonical key
// of one fully populated request per kind, captured before the table
// replaced KeyOf's switch. A row whose geometry, algorithm family or HasOp
// drifts changes a string here — and orphans every stored plan of the kind.
var canonicalKeys = map[Kind]string{
	Reduce1D:         "k1;reduce1d;alg=chain;alg2d=;p=16;w=0;h=0;b=64;op=max;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	AllReduce1D:      "k1;allreduce1d;alg=chain;alg2d=;p=16;w=0;h=0;b=64;op=max;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	Broadcast1D:      "k1;broadcast1d;alg=;alg2d=;p=16;w=0;h=0;b=64;op=sum;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	Reduce2D:         "k1;reduce2d;alg=;alg2d=snake;p=0;w=3;h=5;b=64;op=max;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	AllReduce2D:      "k1;allreduce2d;alg=;alg2d=snake;p=0;w=3;h=5;b=64;op=max;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	Broadcast2D:      "k1;broadcast2d;alg=;alg2d=;p=0;w=3;h=5;b=64;op=sum;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	Scatter:          "k1;scatter;alg=;alg2d=;p=16;w=0;h=0;b=64;op=sum;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	Gather:           "k1;gather;alg=;alg2d=;p=16;w=0;h=0;b=64;op=sum;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	ReduceScatter:    "k1;reducescatter;alg=;alg2d=;p=16;w=0;h=0;b=64;op=max;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	AllGather:        "k1;allgather;alg=;alg2d=;p=16;w=0;h=0;b=64;op=sum;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
	AllReduceMidRoot: "k1;allreduce-midroot;alg=chain;alg2d=;p=16;w=0;h=0;b=64;op=max;tr=3;qcap=2;maxcyc=1048576;skew=5;noop=0x1p-02;act=3;seed=9;shards=4",
}

// smallRow is the geometry the table walks run at: 6 PEs in 1D, 3x2 in 2D.
var smallRow = Request{P: 6, Width: 3, Height: 2, B: 14, Op: fabric.OpMax}

func ramp(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(i%7) - 2.5
	}
	return v
}

// TestKindTableConformance walks the kind table: every row, under every
// algorithm it accepts, validates, keys canonically and round-trips, takes
// inputs of the row's layout, and compiles and runs with the row's own
// prediction — so a new row that is inconsistent with itself fails here
// before any other layer reads it. Then it holds every row to the model and
// the bound over the conformance lattice (conformLattice).
func TestKindTableConformance(t *testing.T) {
	t.Run("lattice", conformLattice)
	if len(Kinds) != len(canonicalKeys) {
		t.Fatalf("table holds %d kinds, the canonical-key pin %d", len(Kinds), len(canonicalKeys))
	}
	for i := range Kinds {
		ki := &Kinds[i]
		if InfoOf(ki.Kind) != ki {
			t.Fatalf("%s: InfoOf does not return the row", ki.Kind)
		}
		for _, name := range []string{string(ki.Kind), ki.Name, strings.ToUpper(ki.Name), strings.ToUpper(string(ki.Kind[:1])) + string(ki.Kind[1:])} {
			if got, ok := LookupKind(name); !ok || got != ki {
				t.Errorf("LookupKind(%q) = %v, %v; want the %s row", name, got, ok, ki.Kind)
			}
		}
		if InfoOf(Kind(strings.ToUpper(string(ki.Kind)))) != nil {
			t.Errorf("%s: InfoOf must match key names exactly", ki.Kind)
		}

		full := Request{Kind: ki.Kind, Alg: core.Chain, Alg2D: core.Snake, P: 16, Width: 3, Height: 5, B: 64, Op: fabric.OpMax,
			Opt: fabric.Options{TR: 3, QueueCap: 2, MaxCycles: 1 << 20, ClockSkewMax: 5, ThermalNoopRate: 0.25, TaskActivation: 3, Seed: 9, Shards: 4}}
		if got := KeyOf(full).String(); got != canonicalKeys[ki.Kind] {
			t.Errorf("%s: canonical key drifted:\n got %s\nwant %s", ki.Kind, got, canonicalKeys[ki.Kind])
		}

		// An algorithm outside the family is a bad shape where the kind
		// takes one, and ignored where it does not.
		for _, stray := range []Request{
			{Kind: ki.Kind, Alg: "warp", Alg2D: core.Auto2D, P: 6, Width: 3, Height: 2, B: 14},
			{Kind: ki.Kind, Alg: core.Auto, Alg2D: "diag", P: 6, Width: 3, Height: 2, B: 14},
		} {
			err := stray.Validate()
			if rejects := (stray.Alg == "warp" && ki.Algs != nil) || (stray.Alg2D == "diag" && ki.Algs2D != nil); rejects != errors.Is(err, ErrBadShape) {
				t.Errorf("%s: Validate(alg=%q, alg2d=%q) = %v", ki.Kind, stray.Alg, stray.Alg2D, err)
			}
		}
		if ki.Algs != nil { // the ring is a program of the end-rooted AllReduce alone, the fold of the middle root's
			ring := Request{Kind: ki.Kind, Alg: core.Ring, P: 6, B: 14}
			if err := ring.Validate(); errors.Is(err, ErrBadShape) != (ki.Kind != AllReduce1D) {
				t.Errorf("%s with alg=ring: %v", ki.Kind, err)
			}
			fold := Request{Kind: ki.Kind, Alg: core.Fold, P: 6, B: 14}
			if err := fold.Validate(); errors.Is(err, ErrBadShape) != (ki.Kind != AllReduceMidRoot) {
				t.Errorf("%s with alg=fold: %v", ki.Kind, err)
			}
		}
		if ki.Algs2D != nil { // and the centre root and the split ones of the 2D AllReduce alone
			for _, alg := range []core.Pattern2D{core.Centre, core.Split} {
				r := Request{Kind: ki.Kind, Alg2D: alg, Width: 3, Height: 2, B: 14}
				if err := r.Validate(); errors.Is(err, ErrBadShape) != (ki.Kind != AllReduce2D) {
					t.Errorf("%s with alg2d=%s: %v", ki.Kind, alg, err)
				}
			}
			// The split needs a chunk for every column.
			short := Request{Kind: ki.Kind, Alg2D: core.Split, Width: 3, Height: 2, B: 2}
			if err := short.Validate(); !errors.Is(err, ErrBadShape) {
				t.Errorf("%s with alg2d=split and B < W: %v, want ErrBadShape", ki.Kind, err)
			}
		}

		for _, req := range requestsOf(ki, smallRow) {
			name := string(ki.Kind) + "/" + string(req.Alg) + string(req.Alg2D)
			if err := req.Validate(); err != nil {
				t.Errorf("%s: Validate: %v", name, err)
				continue
			}
			key := KeyOf(req)
			if back := KeyOf(key.Request()); back != key {
				t.Errorf("%s: KeyOf(key.Request()) = %v, want %v", name, back, key)
			}
			if parsed, err := ParseKey(key.String()); err != nil || parsed != key {
				t.Errorf("%s: ParseKey(%q) = %v, %v", name, key.String(), parsed, err)
			}

			inputs := req.Inputs(ramp)
			if err := req.CheckInputs(inputs); err != nil {
				t.Errorf("%s: inputs of the row's own layout rejected: %v", name, err)
			}
			if err := req.CheckInputs(inputs[:len(inputs)-1]); !errors.Is(err, ErrBadShape) {
				t.Errorf("%s: one input short: %v, want ErrBadShape", name, err)
			}
			long := append([][]float32(nil), inputs...)
			long[len(long)-1] = append(ramp(1), long[len(long)-1]...)
			if err := req.CheckInputs(long); !errors.Is(err, ErrBadShape) {
				t.Errorf("%s: last input one element long: %v, want ErrBadShape", name, err)
			}

			p, err := Compile(req)
			if err != nil {
				t.Errorf("%s: Compile: %v", name, err)
				continue
			}
			if p.Key != key {
				t.Errorf("%s: plan key %v, want %v", name, p.Key, key)
			}
			rep, err := p.Execute(inputs)
			if err != nil {
				t.Errorf("%s: Execute: %v", name, err)
				continue
			}
			// Predict resolves before it predicts, as Compile does.
			if want := req.Predict(); math.Float64bits(rep.Predicted) != math.Float64bits(want) {
				t.Errorf("%s: Report.Predicted = %v, Predict of the request as spelled %v", name, rep.Predicted, want)
			}
			if b := req.Bound(); math.IsNaN(b) || b <= 0 || float64(rep.Cycles) < b {
				t.Errorf("%s: bound %v against %d measured cycles", name, b, rep.Cycles)
			}
			if err := p.checkInputs(long); !errors.Is(err, ErrBadShape) {
				t.Errorf("%s: Plan.checkInputs of a mis-sized input: %v", name, err)
			}
		}

		// The smallest geometry a row runs on — one PE, two for the chunked
		// kinds — keeps the triad ordered: bound <= predict and bound <=
		// measured, with nothing to move (0 cycles) on a single PE.
		small := Request{P: 1, Width: 1, Height: 1, B: 14, Op: fabric.OpMax}
		if ki.Chunked {
			small.P = 2
		}
		for _, req := range requestsOf(ki, small) {
			name := fmt.Sprintf("%s/%s%s at %d PE(s)", ki.Kind, req.Alg, req.Alg2D, small.P)
			if err := req.Validate(); err != nil {
				if req.Alg != core.Ring && req.Alg != core.RingDP { // the ring needs a real split
					t.Errorf("%s: Validate: %v", name, err)
				}
				continue
			}
			p, err := Compile(req)
			if err != nil {
				t.Errorf("%s: Compile: %v", name, err)
				continue
			}
			rep, err := p.Execute(req.Inputs(ramp))
			if err != nil {
				t.Errorf("%s: Execute: %v", name, err)
				continue
			}
			bound, predict := req.Bound(), rep.Predicted
			if math.IsNaN(bound) || bound < 0 || float64(rep.Cycles) < bound {
				t.Errorf("%s: bound %v against %d measured cycles", name, bound, rep.Cycles)
			}
			if !math.IsInf(predict, 0) && !math.IsNaN(predict) && bound > predict {
				t.Errorf("%s: bound %v above the prediction %v", name, bound, predict)
			}
			if !ki.Chunked && (rep.Cycles != 0 || bound != 0) {
				t.Errorf("%s: %d cycles under a bound of %v, want 0 and 0 on one PE", name, rep.Cycles, bound)
			}
		}
	}
	if ki, ok := LookupKind("transpose"); ok {
		t.Errorf("LookupKind of an unknown name = %v", ki)
	}
	for op := fabric.OpSum; op <= fabric.OpMin; op++ {
		for _, s := range []string{op.String(), strings.ToUpper(op.String())} {
			if got, err := fabric.ParseReduceOp(s); err != nil || got != op {
				t.Errorf("ParseReduceOp(%q) = %v, %v", s, got, err)
			}
		}
	}
	if _, err := fabric.ParseReduceOp("xor"); err == nil {
		t.Error("ParseReduceOp accepts xor")
	}
}

// TestEveryScheduleIsPriced: every algorithm a row accepts, and every
// schedule AllGather picks from, has a finite estimate on every valid shape
// of a few geometries and ramp latencies — while a pattern a Predict function
// does not price is +Inf there, not a silent 0 or a lone phase (a 2D Reduce
// under an AllReduce-only pattern, an AllGather under a reduction tree, a 1D
// Reduce under the fold, the middle root under the ring, an AllReduce under
// no pattern at all, a ReduceScatter under the ring's other mapping).
func TestEveryScheduleIsPriced(t *testing.T) {
	finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
	for _, g := range []Request{{P: 6, Width: 3, Height: 2, B: 14}, {P: 16, Width: 8, Height: 8, B: 256}, {P: 5, Width: 5, Height: 7, B: 5}, {P: 2, Width: 1, Height: 1, B: 1}} {
		for _, tr := range []int{-1, 0, 3} {
			g.Opt = fabric.Options{TR: tr}
			for i := range Kinds {
				for _, req := range requestsOf(&Kinds[i], g) {
					if req.Validate() != nil {
						continue
					}
					if v := req.Predict(); !finite(v) {
						t.Errorf("%s/%s%s p=%d %dx%d b=%d tr=%d: Predict = %v", req.Kind, req.Alg, req.Alg2D, req.P, req.Width, req.Height, req.B, tr, v)
					}
				}
			}
			pr := core.Params(g.Opt)
			for _, alg := range core.AllGatherPatterns {
				if v := core.PredictAllGather(alg, g.P, max(g.B, g.P), pr); !finite(v) {
					t.Errorf("allgather/%s p=%d b=%d tr=%d: %v", alg, g.P, max(g.B, g.P), tr, v)
				}
			}
			if v := core.PredictAllGather(core.Tree, g.P, max(g.B, g.P), pr); !math.IsInf(v, 1) {
				t.Errorf("an AllGather under a tree prices %v, want +Inf", v)
			}
			for name, v := range map[string]float64{
				"a 1D Reduce under the fold":             core.PredictReduce1D(core.Fold, g.P, g.B, pr),
				"the middle root under the ring":         core.PredictAllReduceMidRoot(core.Ring, g.P, g.B, pr),
				"an AllReduce under a bogus pattern":     core.PredictAllReduce1D("bogus", g.P, g.B, pr),
				"a ReduceScatter under the ring-dp":      core.PredictReduceScatter(core.RingDP, g.P, max(g.B, g.P), pr),
				"an end-rooted AllReduce under the fold": core.PredictAllReduce1D(core.Fold, g.P, g.B, pr),
			} {
				if !math.IsInf(v, 1) {
					t.Errorf("%s p=%d b=%d tr=%d prices %v, want +Inf", name, g.P, g.B, tr, v)
				}
			}
			for _, alg := range []core.Pattern2D{core.Centre, core.Split} {
				if v := core.PredictReduce2D(alg, g.Width, g.Height, g.B, pr); !math.IsInf(v, 1) {
					t.Errorf("a 2D Reduce under %s prices %v, want +Inf", alg, v)
				}
			}
		}
	}
}

// TestKindLookupDoesNotAllocate: the row lookup sits on the Run and KeyOf
// paths of a 50 µs replay, so validating, keying and checking the inputs of
// a request must stay allocation-free.
func TestKindLookupDoesNotAllocate(t *testing.T) {
	req := Request{Kind: AllReduceMidRoot, Alg: core.TwoPhase, P: 16, B: 8, Op: fabric.OpSum}
	inputs := req.Inputs(ramp)
	var sink Key
	if n := testing.AllocsPerRun(100, func() {
		if req.Validate() != nil || req.CheckInputs(inputs) != nil {
			t.Fatal("valid request rejected")
		}
		sink = KeyOf(req)
	}); n != 0 {
		t.Errorf("Validate + CheckInputs + KeyOf allocate %v times per call", n)
	}
	_ = sink
}

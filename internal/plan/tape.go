package plan

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// The replay tape. A plan's cycles, Stats and the order in which its
// processors touch their accumulators depend on the program and the options
// alone, never on the data (fabric/tape.go), so a plan needs the cycle loop
// once per lifetime, not once per replay — and, since that makes the tape a
// function of exactly what a plan store keys a plan by, once per store, not
// once per process. The tape is part of the compiled artifact, so it is taped
// where plans are made: the miss that compiles a plan, or loads one from a
// frame written without its tape, runs the simulator once on symbolic data
// (fabric.Record) before it hands the plan on, and a plan store is written
// once, tape included (miss.go). From then on executions bind their
// inputs into one flat accumulator image, walk the tape over it and assemble
// the same report, bit for bit.
//
// A plan no miss made (plan.Compile, as a one-shot wse.Run uses it) runs the
// simulator plainly the first time and records on its second execution, so
// one-shot callers never pay for a recording; a batch of several entries is
// there to be replayed, so its first entry records (Plan.ExecuteBatch).
//
// The simulator stays the only thing that ever decides a cycle count — a
// stored tape is one it decided earlier — and it stays the path for:
//   - the first single execution of a plan no miss taped;
//   - plans that carry a fabric.Tracer (they exist to watch the engine);
//   - programs whose tape would exceed fabric.MaxTapeEvents;
//   - inputs whose lengths differ from the ones the tape was recorded under
//     (the accumulator layout follows the bound lengths);
//   - every run that fails: a deadlock, a protocol violation, a MaxCycles
//     overrun or an interrupt records nothing, and recurs from the engine.
//
// Nothing selects any of this; there is no option to.

// The execution modes, as the fabric.exec span names them.
const (
	modeEngine = "engine"
	modeRecord = "record"
	modeTape   = "tape"
)

// replayState is the tape side of a Plan.
type replayState struct {
	// tape, once set, is the plan's tape, laid out for inputs of the kind's
	// layout bound where the plan binds them (placeable).
	tape atomic.Pointer[shapedTape]
	// ran is set once an execution completed on the engine: the next one
	// records.
	ran atomic.Bool
	// loaded marks a tape that came with the plan's stored frame (SetTape)
	// rather than from a recording of this process.
	loaded bool
	// replays counts the reports walked from the tape: into the counters of
	// the first cache to take the plan in, until then into own.
	replays atomic.Pointer[atomic.Int64]
	own     atomic.Int64
}

// tapeCounters are a cache's: every plan it takes in is counted once, in
// records, loaded or declined, by the tape it arrived with.
type tapeCounters struct {
	records, replays, declined, loaded atomic.Int64
}

// count files p under the tape it arrives with, and has its replays counted
// here from now on. A plan another cache took in first is not counted again.
func (tc *tapeCounters) count(p *Plan) {
	r := &p.replay
	if !r.replays.CompareAndSwap(nil, &tc.replays) {
		return
	}
	switch {
	case r.loaded:
		tc.loaded.Add(1)
	case r.tape.Load() != nil && p.Opt.Tracer == nil:
		tc.records.Add(1)
	default:
		tc.declined.Add(1)
	}
}

// replayed counts one report walked from the tape.
func (r *replayState) replayed() {
	if c := r.replays.Load(); c != nil {
		c.Add(1)
		return
	}
	r.own.Add(1)
}

// shapedTape is a plan's tape with the shape whose input layout its image
// holds, the plan's shape when it was recorded or decoded, and that shape's
// kind row. A plan whose exported fields have been rebound since runs on
// the engine.
type shapedTape struct {
	tape  *fabric.Tape
	shape Request
	ki    *KindInfo
}

// tapeFor is the plan's tape when inputs replay from it: they fit the kind's
// layout for the shape the tape was laid out for. It allocates nothing.
func (p *Plan) tapeFor(inputs [][]float32) *shapedTape {
	st := p.replay.tape.Load()
	if st == nil || p.Opt.Tracer != nil || st.shape != p.shape() || st.ki.checkInputs(st.shape, inputs) != nil {
		return nil
	}
	return st
}

// setTape installs tape, laid out for the plan's current shape, unless the
// plan has one already (racing recordings make the same tape), and returns
// it as the plan replays it.
func (p *Plan) setTape(tape *fabric.Tape) *shapedTape {
	st := &shapedTape{tape: tape, shape: p.shape(), ki: InfoOf(p.Kind)}
	p.replay.tape.CompareAndSwap(nil, st)
	return st
}

// acquire decides how one call executes, and readies it: it returns the
// plan's tape when the call replays (or has just recorded) it, and otherwise
// a fabric armed with inputs and watched by ctx, for the caller to run. A plan
// without a tape records once it has completed a run, or at once when eager
// (the first entry of a batch). mode names the choice for the trace. Inputs
// that do not fit the kind's layout go to the engine's binding, which says
// why.
func (p *Plan) acquire(ctx context.Context, inputs [][]float32, eager bool) (st *shapedTape, f *fabric.Fabric, mode string, err error) {
	if st = p.tapeFor(inputs); st != nil {
		return st, nil, modeTape, nil
	}
	if f, err = p.arm(ctx, inputs); err != nil {
		return nil, nil, modeEngine, err
	}
	if p.replay.tape.Load() != nil || p.Opt.Tracer != nil || !eager && !p.replay.ran.Load() {
		return nil, f, modeEngine, nil
	}
	switch tape, err := p.record(f); {
	case err != nil:
		return nil, nil, modeRecord, err // nothing recorded: the failure recurs from the engine
	case tape == nil:
		return nil, f, modeEngine, nil // over the cap: Record ran nothing, f is still armed
	default:
		return p.setTape(tape), nil, modeRecord, nil
	}
}

// record runs the fabric, armed with inputs of the kind's layout, on
// symbolic data. It returns nil, nil for a program over the tape cap, or one
// whose image has no place for an input.
func (p *Plan) record(f *fabric.Fabric) (*fabric.Tape, error) {
	tape, err := f.Record()
	if errors.Is(err, fabric.ErrTapeTooLong) {
		return nil, nil
	}
	if err != nil || !p.placeable(tape) {
		return nil, err
	}
	return tape, nil
}

// recordTape is how the miss tapes the plan it makes: one recording
// run on inputs of the lengths the kind takes, under the lookup's ctx. A ctx
// that fires is the lookup's failure, with the typed ctx error. A program the
// engine fails (or one over the tape cap) is left untaped, so its executions
// meet the engine as they would have anyway.
func (p *Plan) recordTape(ctx context.Context) error {
	_, sp := obs.Start(ctx, "fabric.exec")
	defer sp.End()
	sp.SetAttr("mode", modeRecord)
	var zero []float32 // the values are symbolic: one read-only buffer serves every input
	inputs := p.shape().Inputs(func(n int) []float32 {
		if n > len(zero) {
			zero = make([]float32, n)
		}
		return zero[:n]
	})
	f, err := p.arm(ctx, inputs)
	var tape *fabric.Tape
	if err == nil {
		tape, err = p.record(f)
	}
	if cerr := ctxErr(ctx); cerr != nil {
		sp.SetError(cerr)
		return cerr
	}
	sp.SetError(err)
	if tape != nil {
		p.setTape(tape)
		sp.SetAttr("tape_runs", tape.Runs())
	}
	return nil
}

// placeable reports whether the tape's image has a place for every input of
// the kind's layout: input j is unit j, the PE at row-major index j, and
// lands at its chunk offset for the placed kind, at the start otherwise.
func (p *Plan) placeable(tape *fabric.Tape) bool {
	ki := InfoOf(p.Kind)
	l, s := ki.inputs(p.shape()), tape.Spec()
	if l.n > tape.Units() {
		return false
	}
	for j := range l.n {
		off := 0
		if ki.placed {
			off, _ = comm.Chunk(p.P, p.B, j)
		}
		if _, room := tape.Unit(j); s.At(p.inputCoord(j)) == nil || off+l.len(j) > room {
			return false
		}
	}
	return true
}

// boundLen is the length of the vector a run binds to the PE at row-major
// index i: the kind's input there, or the B-element image the placed kind's
// chunk sits in; 0 past the inputs.
func (p *Plan) boundLen() func(i int) int {
	ki := InfoOf(p.Kind)
	l := ki.inputs(p.shape())
	return func(i int) int {
		switch {
		case i >= l.n:
			return 0
		case ki.placed:
			return p.B
		}
		return l.len(i)
	}
}

// Tape returns the plan's replay tape, or nil while the plan has none. It is
// what a plan store persists beside the program.
func (p *Plan) Tape() *fabric.Tape {
	if st := p.replay.tape.Load(); st != nil {
		return st.tape
	}
	return nil
}

// SetTape installs the tape section stored with the plan, recorded from this
// very program: the plan replays from it from its first execution on and
// never builds a fabric. It is for the decoder of a stored frame, on a plan
// nothing else has seen yet. The tape's image is the one this program lays
// out for inputs of the kind's layout (fabric.DecodeTape derives it from the
// program and boundLen), and the section is held to it; a section that does
// not decode is an error and leaves the plan as it was.
func (p *Plan) SetTape(section []byte) error {
	if InfoOf(p.Kind) == nil {
		return fmt.Errorf("plan: stored tape: unknown kind %q", p.Kind)
	}
	tape, err := fabric.DecodeTape(p.Spec, p.boundLen(), section)
	if err != nil {
		return err
	}
	if !p.placeable(tape) {
		return fmt.Errorf("plan: stored tape: an input has no place in its image")
	}
	p.replay.loaded = true
	p.setTape(tape)
	return nil
}

// CheckTape holds the plan's tape to the simulator: it runs the plan once on
// a fresh fabric, on fixed inputs whose sums are sensitive to the order they
// are taken in, and requires of the tape walk the same cycles, Stats, clock
// samples and accumulators, bit for bit. A plan without a tape passes. It is
// what re-earns the trust a stored tape is loaded on (planstore.Store.Verify).
func (p *Plan) CheckTape() error {
	st := p.replay.tape.Load()
	if st == nil {
		return nil
	}
	k := 0
	inputs := p.shape().Inputs(func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			k++
			v[i] = 0.37*float32(k%101) + 0.11
		}
		return v
	})
	want, err := p.simulate(inputs)
	if err != nil {
		return fmt.Errorf("plan: tape check: the simulator fails where the tape reports a run: %w", err)
	}
	acc := make([]float32, st.tape.AccLen())
	st.bind(inputs, acc)
	got := st.tape.Run(acc)
	switch {
	case got.Cycles != want.Cycles:
		return fmt.Errorf("plan: tape check: tape says %d cycles, the simulator %d", got.Cycles, want.Cycles)
	case got.Stats != want.Stats:
		return fmt.Errorf("plan: tape check: tape says %+v, the simulator %+v", got.Stats, want.Stats)
	case !maps.EqualFunc(got.Clocks, want.Clocks, slices.Equal[[]int64]):
		return fmt.Errorf("plan: tape check: clock samples differ from the simulator's")
	case !maps.EqualFunc(got.Acc, want.Acc, sameBits):
		return fmt.Errorf("plan: tape check: accumulators differ from the simulator's")
	}
	return nil
}

// sameBits is float32 slice equality on the bit patterns: NaNs compare equal
// to themselves and the two zeros differ.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// bind copies inputs, which fit the kind's layout, to their places in the
// tape's image.
func (st *shapedTape) bind(inputs [][]float32, acc []float32) {
	for j, v := range inputs {
		base, _ := st.tape.Unit(j)
		if st.ki.placed {
			off, _ := comm.Chunk(st.shape.P, st.shape.B, j)
			base += off
		}
		copy(acc[base:], v)
	}
}

// replayTape produces the report of one run from the tape. inputs must fit
// it. acc, when non-nil, is the zeroed image to build the run in (a batch
// carves it from one allocation) and off the offset table earlier columnar
// reports of the batch share.
func (p *Plan) replayTape(st *shapedTape, inputs [][]float32, columnar bool, acc []float32, off []int) *core.Report {
	p.replay.replayed()
	if acc == nil {
		acc = make([]float32, st.tape.AccLen())
	}
	st.bind(inputs, acc)
	if columnar {
		res := &fabric.ColumnarResult{Off: off}
		st.tape.RunColumnar(res, acc)
		return core.ReportOfColumnar(res, p.Predicted)
	}
	return core.ReportOf(st.tape.Run(acc), p.Predicted)
}

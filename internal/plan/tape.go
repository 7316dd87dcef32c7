package plan

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fabric"
)

// The replay tape. A plan's cycles, Stats and the order in which its
// processors touch their accumulators depend on the program and the options
// alone, never on the data (fabric/tape.go), so a plan needs the cycle loop
// once per lifetime, not once per replay — and, since that makes the tape a
// function of exactly what a plan store keys a plan by, once per store, not
// once per process. A plan a Cache holds is there to be replayed, so its
// first execution runs the simulator on symbolic data (fabric.Record) and
// keeps the tape; from then on executions bind their inputs into one flat
// accumulator image, walk the tape over it and assemble the same report, bit
// for bit. A plan nothing caches (a one-shot wse.Run) runs the simulator
// plainly the first time and records on its second execution, so one-shot
// callers never pay for a recording; a batch of several entries is there to
// be replayed as well, so its first entry records (Plan.ExecuteBatch). A plan
// decoded from a frame that carries its tape (planstore) starts ready: it
// never builds a fabric at all.
//
// The simulator stays the only thing that ever decides a cycle count — a
// stored tape is one it decided earlier — and it stays the path for:
//   - the first single execution of a plan no cache holds;
//   - plans that carry a fabric.Tracer (they exist to watch the engine);
//   - programs whose tape would exceed fabric.MaxTapeEvents;
//   - inputs whose lengths differ from the ones the tape was recorded under
//     (the accumulator layout follows the bound lengths);
//   - every run that fails: a deadlock, a protocol violation, a MaxCycles
//     overrun or an interrupt records nothing, and recurs from the engine.
//
// Nothing selects any of this; there is no option to.

// The record-once states of a plan.
const (
	tapeCold      int32 = iota // uncached and never completed a run: executions stay on the engine
	tapeWarm                   // cached, batched, or completed a run: the next execution records
	tapeRecording              // one execution is recording, the others stay on the engine
	tapeReady                  // replayState.tape is set
	tapeDeclined               // cannot be taped: the engine for good
)

// The execution modes, as the fabric.exec span names them.
const (
	modeEngine = "engine"
	modeRecord = "record"
	modeTape   = "tape"
)

// replayState is the tape side of a Plan.
type replayState struct {
	state atomic.Int32
	tape  atomic.Pointer[boundTape]
	// shared is where this plan's tape events are counted once a cache
	// holds it (the first to insert it: CacheStats reports the sums over
	// every plan a cache ever held); until then they land in own.
	shared atomic.Pointer[tapeCounters]
	own    tapeCounters
	// loaded marks a tape that came with the plan's stored frame (SetTape)
	// rather than from a recording of this process.
	loaded bool

	// pending holds the saves waiting for the tape to settle (writeback.go).
	wbMu    sync.Mutex
	pending []writeBack
}

type tapeCounters struct {
	records, replays, declined, loaded atomic.Int64
}

func (r *replayState) counters() *tapeCounters {
	if c := r.shared.Load(); c != nil {
		return c
	}
	return &r.own
}

// boundTape is a plan's tape with the plan's input binding resolved against
// it: input j of a run is copied to image[dst[j]:], and had n[j] elements
// when the tape was recorded.
type boundTape struct {
	tape   *fabric.Tape
	dst, n []int
}

// fits reports whether inputs have the lengths the tape was recorded under.
func (bt *boundTape) fits(inputs [][]float32) bool {
	if len(inputs) != len(bt.n) {
		return false
	}
	for j, v := range inputs {
		if len(v) != bt.n[j] {
			return false
		}
	}
	return true
}

// acquire decides how one call executes, and readies it: it returns the
// plan's tape when the call replays (or has just recorded) it, and otherwise
// a fabric armed with inputs and watched by ctx, for the caller to run. mode
// names the choice for the trace.
func (p *Plan) acquire(ctx context.Context, inputs [][]float32) (bt *boundTape, f *fabric.Fabric, mode string, err error) {
	if bt := p.replay.tape.Load(); bt != nil && bt.fits(inputs) {
		return bt, nil, modeTape, nil
	}
	mode = modeEngine
	record := p.replay.state.CompareAndSwap(tapeWarm, tapeRecording)
	if record {
		mode = modeRecord
		// Whatever becomes of the recording, this execution settles what the
		// plan's stored frame can say about its tape.
		defer p.settle(ctx)
	}
	if f, err = p.arm(ctx, inputs); err != nil {
		if record {
			p.replay.state.Store(tapeWarm)
		}
		return nil, nil, mode, err
	}
	if !record {
		return nil, f, mode, nil
	}
	bt, err = p.record(f, inputs)
	switch {
	case err != nil:
		p.replay.state.Store(tapeWarm) // nothing recorded: the failure recurs from the engine
		return nil, nil, mode, err
	case bt == nil:
		p.replay.state.Store(tapeDeclined)
		p.replay.counters().declined.Add(1)
		return nil, f, modeEngine, nil // Record ran nothing: f is still armed
	}
	p.replay.tape.Store(bt)
	p.replay.state.Store(tapeReady)
	p.replay.counters().records.Add(1)
	return bt, nil, mode, nil
}

// record runs the armed fabric on symbolic data and binds the plan's inputs
// against the tape. It returns nil, nil for a plan that cannot be taped.
func (p *Plan) record(f *fabric.Fabric, inputs [][]float32) (*boundTape, error) {
	if p.Opt.Tracer != nil {
		return nil, nil
	}
	tape, err := f.Record()
	if errors.Is(err, fabric.ErrTapeTooLong) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	lens := make([]int, len(inputs))
	for j, v := range inputs {
		lens[j] = len(v)
	}
	return p.bindTape(tape, lens), nil
}

// bindTape resolves where inputs of the given lengths land in the tape's
// image. It returns nil when one of them has no place there, which leaves
// the plan to the engine.
func (p *Plan) bindTape(tape *fabric.Tape, lens []int) *boundTape {
	bt := &boundTape{tape: tape, dst: make([]int, len(lens)), n: lens}
	chunkOff := p.chunkOffsets()
	// Inputs and the tape's PEs both come in row-major order: one walk.
	u, units := 0, tape.Units()
	for j, n := range lens {
		want := p.inputCoord(j)
		for u < units {
			if c, _, _ := tape.Unit(u); c.Y > want.Y || c.Y == want.Y && c.X >= want.X {
				break
			}
			u++
		}
		if u == units {
			return nil
		}
		c, base, size := tape.Unit(u)
		off := 0
		if chunkOff != nil {
			off = chunkOff[j]
		}
		if c != want || n < 0 || off+n > size {
			return nil
		}
		bt.dst[j] = base + off
	}
	return bt
}

// Tape returns the plan's replay tape and the input lengths it is bound to,
// or nil while the plan has none. It is what a plan store persists beside the
// program.
func (p *Plan) Tape() (*fabric.Tape, []int) {
	bt := p.replay.tape.Load()
	if bt == nil {
		return nil, nil
	}
	return bt.tape, bt.n
}

// SetTape installs a tape that was stored with the plan, recorded from this
// very program under inputs of the given lengths: the plan replays from it
// from its first execution on and never builds a fabric. It is for the
// decoder of a stored frame, on a plan nothing else has seen yet. The tape's
// image must be the one this program lays out for such inputs, element for
// element; anything else is an error and leaves the plan as it was.
func (p *Plan) SetTape(tape *fabric.Tape, lens []int) error {
	if err := p.shape().CheckInputLens(lens); err != nil {
		return fmt.Errorf("plan: stored tape: %w", err)
	}
	bt := p.bindTape(tape, lens)
	if bt == nil {
		return fmt.Errorf("plan: stored tape: an input has no place in its image")
	}
	// The image holds, per PE, what the engine would have allocated: the
	// bound input or the span its ops address, whichever is longer.
	width, placed := p.Spec.Width, p.chunkOffsets() != nil
	for u := 0; u < tape.Units(); u++ {
		c, _, n := tape.Unit(u)
		want := p.Spec.At(c).AccNeed()
		if j := c.Y*width + c.X; j < len(lens) {
			if placed {
				want = max(want, p.B)
			} else {
				want = max(want, lens[j])
			}
		}
		if n != want {
			return fmt.Errorf("plan: stored tape: PE %v accumulator of %d elements, the program lays out %d", c, n, want)
		}
	}
	p.replay.loaded = true
	p.replay.tape.Store(bt)
	p.replay.state.Store(tapeReady)
	return nil
}

// CheckTape holds the plan's tape to the simulator: it runs the plan once on
// a fresh fabric, on fixed inputs whose sums are sensitive to the order they
// are taken in, and requires of the tape walk the same cycles, Stats, clock
// samples and accumulators, bit for bit. A plan without a tape passes. It is
// what re-earns the trust a stored tape is loaded on (planstore.Store.Verify).
func (p *Plan) CheckTape() error {
	bt := p.replay.tape.Load()
	if bt == nil {
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
	acc := make([]float32, bt.tape.AccLen())
	for j, v := range inputs {
		copy(acc[bt.dst[j]:], v)
	}
	got := bt.tape.Run(acc)
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

// replayTape produces the report of one run from the tape. inputs must fit
// it. acc, when non-nil, is the zeroed image to build the run in (a batch
// carves it from one allocation) and off the offset table earlier columnar
// reports of the batch share.
func (p *Plan) replayTape(bt *boundTape, inputs [][]float32, columnar bool, acc []float32, off []int) *core.Report {
	p.replay.counters().replays.Add(1)
	if acc == nil {
		acc = make([]float32, bt.tape.AccLen())
	}
	for j, v := range inputs {
		copy(acc[bt.dst[j]:], v)
	}
	if columnar {
		res := &fabric.ColumnarResult{Off: off}
		bt.tape.RunColumnar(res, acc)
		return core.ReportOfColumnar(res, p.Predicted)
	}
	return core.ReportOf(bt.tape.Run(acc), p.Predicted)
}

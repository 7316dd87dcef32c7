package plan

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sched"
)

// The replay tape. A plan's cycles, Stats and the order in which its
// processors touch their accumulators depend on the program and the options
// alone, never on the data (fabric/tape.go), so a plan needs the cycle loop
// once per lifetime, not once per replay. The plan's first execution runs
// the simulator as ever — one-shot callers never pay for a recording. Its
// second runs the simulator on symbolic data (fabric.Record) and keeps the
// tape; from then on executions bind their inputs into one flat accumulator
// image, walk the tape over it and assemble the same report, bit for bit.
//
// The simulator stays the only thing that ever decides a cycle count, and it
// stays the path for:
//   - a plan's first execution;
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
	tapeCold      int32 = iota // never completed a run: executions stay on the engine
	tapeWarm                   // completed one: the next execution records
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
}

type tapeCounters struct {
	records, replays, declined atomic.Int64
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
// a fabric instance armed with inputs and watched by ctx, to be handed back
// through release. mode names the choice for the trace.
func (p *Plan) acquire(ctx context.Context, inputs [][]float32) (bt *boundTape, pf *pooledFabric, mode string, err error) {
	if bt := p.replay.tape.Load(); bt != nil && bt.fits(inputs) {
		return bt, nil, modeTape, nil
	}
	mode = modeEngine
	record := p.replay.state.CompareAndSwap(tapeWarm, tapeRecording)
	if record {
		mode = modeRecord
	}
	if pf, err = p.checkout(inputs); err != nil {
		if record {
			p.replay.state.Store(tapeWarm)
		}
		return nil, nil, mode, err
	}
	if ctx != nil && ctx.Done() != nil {
		pf.f.SetInterrupt(func() error { return sched.CtxError(ctx) })
	}
	if !record {
		return nil, pf, mode, nil
	}
	bt, err = p.record(pf, inputs)
	switch {
	case err != nil:
		p.replay.state.Store(tapeWarm) // nothing recorded: the failure recurs from the engine
		return nil, nil, mode, err
	case bt == nil:
		p.replay.state.Store(tapeDeclined)
		p.replay.counters().declined.Add(1)
		return nil, pf, modeEngine, nil // Record ran nothing: pf is still armed
	}
	p.replay.tape.Store(bt)
	p.replay.state.Store(tapeReady)
	p.replay.counters().records.Add(1)
	// The tape replaces the fabric instances: this one and the pooled ones
	// go, and engine runs still in flight drop theirs on return.
	p.pool.Close()
	return bt, nil, mode, nil
}

// record runs the armed instance on symbolic data and binds the plan's
// inputs against the tape. It returns nil, nil for a plan that cannot be
// taped.
func (p *Plan) record(pf *pooledFabric, inputs [][]float32) (*boundTape, error) {
	if p.Opt.Tracer != nil {
		return nil, nil
	}
	tape, err := pf.f.Record()
	if errors.Is(err, fabric.ErrTapeTooLong) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	bt := &boundTape{tape: tape, dst: make([]int, len(inputs)), n: make([]int, len(inputs))}
	chunkOff := p.chunkOffsets()
	for j, v := range inputs {
		base, size, ok := tape.Base(p.inputCoord(j))
		off := 0
		if chunkOff != nil {
			off = chunkOff[j]
		}
		if !ok || off+len(v) > size {
			return nil, nil // an input without a place in the image: leave the plan to the engine
		}
		bt.dst[j], bt.n[j] = base+off, len(v)
	}
	return bt, nil
}

// release hands a healthy instance back after an engine run that completed,
// which is also what makes a cold plan due for recording.
func (p *Plan) release(pf *pooledFabric) {
	// Clear the hook before the instance can be pooled: a pooled fabric
	// outlives this request and must not poll its dead context.
	pf.f.SetInterrupt(nil)
	p.pool.Put(pf)
	p.replay.state.CompareAndSwap(tapeCold, tapeWarm)
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

package fabric

import (
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/mesh"
)

// A run of the engine does two jobs at once: it decides the timing (cycles,
// Stats, clock samples) and it moves the data. No branch of the cycle loop
// reads a wavelet's value, so the timing — and with it the order in which
// the processors touch their accumulators — is a function of the program
// and the options alone. Record runs the engine once with symbolic data and
// writes that dataflow down; Tape.Run then reproduces a run of the same
// program on new inputs by walking the recording, without the cycle loop.
//
// The recording run sees one event per wavelet and processor side: a load
// defines a wave (the payload of one data wavelet, multicast included) from
// an accumulator element, a store or a reduce consumes one into an element.
// The engine's order interleaves all PEs, but the data depends on two things
// only: per element, the order of the events that touch it; per wave, that
// its one load precedes its consumers (a wave is assigned once, so they do
// not order among themselves). Every topological order of those dependencies
// applies the same operations to the same operands and so leaves the engine's
// float bits. The tape keeps one that reads as vectors: formRuns re-schedules
// the events once, at record time, into runs — n consecutive elements all
// loaded, all stored or all reduced, against n consecutive waves — and the
// walk is a copy or a += loop per run. The collectives stream vectors, so a
// run is typically a PE's whole op; the events are scratch and are dropped.
//
// formRuns is a list scheduler. The first event in recorded order not yet
// scheduled has all it depends on behind it, so it is ready and starts a run.
// The run grows an element at a time: the oldest unscheduled event of the
// next element joins when it is of the run's kind and, for a consume, reads
// the wave after the run's last — in the numbering the schedule gives the
// waves, which counts loads as they are scheduled, so a wave not loaded yet
// has no number and never matches. No event is placed ahead of something it
// waits for: the schedule is a topological order by construction, greedy
// growth cannot close a cycle, and two PEs that exchange element k before
// either sends k+1 come out as runs of one.

// MaxTapeEvents caps a tape: a program whose processors would touch their
// accumulators more often than this is not recorded (ErrTapeTooLong). It
// bounds a recording's scratch (12 bytes an event, 4 a wave) and the elements
// one walk moves; what a tape keeps is 16 bytes a run and 4 a wave.
const MaxTapeEvents = 1 << 21

// ErrTapeTooLong is returned by Record, before anything runs, for a program
// whose dataflow does not fit MaxTapeEvents. The fabric stays armed.
var ErrTapeTooLong = errors.New("fabric: program's dataflow exceeds the tape cap")

// tapeEvent is one processor-side touch of an accumulator element, on the
// flat image that concatenates every PE's accumulator in unit order.
type tapeEvent struct {
	acc  uint32 // flat accumulator index
	op   uint32 // kind<<tapeKindShift | wave id
	next uint32 // formRuns' link to the next event on the same element
}

// The kinds of an event and of a run. Wave ids stay below MaxTapeEvents,
// well inside the low bits.
const (
	tapeLoad   uint32 = iota // tmp[w] = acc[a]
	tapeStore                // acc[a] = tmp[w]
	tapeReduce               // + ReduceOp: acc[a] = op(acc[a], tmp[w])
	tapeKinds  = tapeReduce + uint32(OpMin) + 1

	tapeKindShift = 24
	tapeWaveMask  = 1<<tapeKindShift - 1
)

// tapeRun is n events of one kind on consecutive elements and consecutive
// waves: element acc+i against wave wave+i.
type tapeRun struct {
	acc, wave, n, kind uint32
}

// recorder collects the events of a recording run. The run is stepped on one
// goroutine, so events land in an order the engine could have executed them
// in serially: within a cycle units do not see each other's effects, across
// cycles the order is the engine's own.
type recorder struct {
	base   []uint32 // flat index of each unit's first accumulator element, then the image's length
	ops    int      // the program's ops: a streaming op is one run, or one each way
	events []tapeEvent
	waves  uint32
}

// wave is the payload a data wavelet carries while recording: the id of the
// wave the next load defines, in the bits of the value it stands for.
func (r *recorder) wave() float32 { return math.Float32frombits(r.waves) }

// load records that unit i sent element k of its accumulator.
func (r *recorder) load(i int32, k int) {
	r.events = append(r.events, tapeEvent{acc: r.base[i] + uint32(k), op: tapeLoad<<tapeKindShift | r.waves})
	r.waves++
}

// recv records that unit i consumed data wavelet w into element k of its
// accumulator under op: stored, or combined by op.Reduce.
func (r *recorder) recv(i int32, k int, op *Op, w Wavelet) {
	kind := tapeStore
	if op.Kind == OpRecvReduce || op.Kind == OpRecvReduceSend || op.Kind == OpSendRecvReduce {
		kind = tapeReduce + uint32(op.Reduce)
	}
	r.events = append(r.events, tapeEvent{acc: r.base[i] + uint32(k), op: kind<<tapeKindShift | math.Float32bits(w.Val)})
}

// formRuns schedules the events into runs (top of the file), linking them by next.
func (rec *recorder) formRuns() []tapeRun {
	events, accLen := rec.events, int(rec.base[len(rec.base)-1])
	// Per element the oldest unscheduled event, per recorded wave its
	// scheduled number, both plus one: the zero they start as means none.
	scratch := make([]uint32, accLen+int(rec.waves))
	head, renum := scratch[:accLen], scratch[accLen:]
	for i := len(events) - 1; i >= 0; i-- {
		e := &events[i]
		e.next, head[e.acc] = head[e.acc], uint32(i)+1
	}
	const scheduled = ^uint32(0) // in place of an event's link once it is off its element's list
	runs, loads := make([]tapeRun, 0, 2*rec.ops), uint32(0)
	for i := range events {
		e := &events[i]
		if e.next == scheduled {
			continue
		}
		r := tapeRun{acc: e.acc, wave: loads, kind: e.op >> tapeKindShift}
		if r.kind != tapeLoad {
			r.wave = renum[e.op&tapeWaveMask] - 1
		}
		for a := int(e.acc); ; {
			head[a], e.next = e.next, scheduled
			if r.kind == tapeLoad {
				loads++
				renum[e.op&tapeWaveMask] = loads
			}
			r.n++
			if a++; a == accLen || head[a] == 0 {
				break
			}
			e = &events[head[a]-1]
			if e.op>>tapeKindShift != r.kind || r.kind != tapeLoad && renum[e.op&tapeWaveMask] != r.wave+r.n+1 {
				break
			}
		}
		runs = append(runs, r)
	}
	return runs
}

// Tape is the recorded dataflow of one completed run, with the run's timing.
// It is immutable and safe for concurrent use; it holds no reference to the
// fabric it was recorded on beyond the coordinate list.
type Tape struct {
	cycles int64
	stats  Stats
	coords []mesh.Coord
	off    []int   // len(coords)+1 prefix offsets of the PEs' accumulators in the flat image
	clkOff []int   // likewise for the clock samples
	clocks []int64 // every PE's sampled clock slots, concatenated
	runs   []tapeRun
	events int // the elements a walk moves: the sum of the runs' lengths
	waves  int

	// spare parks the wave buffer between runs, so that a plan replayed by
	// one caller at a time allocates it once. Concurrent runs that find the
	// slot empty make their own.
	spare atomic.Pointer[[]float32]
}

// Record runs the armed fabric to completion like Run, but on symbolic data:
// instead of a result it returns the tape of the run. Every check of the
// engine applies, so a program that deadlocks, violates the wavelet protocol,
// overruns MaxCycles or is interrupted fails exactly as under Run, and
// yields no tape. A sharded fabric is stepped band by band on the calling
// goroutine, which the engine's semantics make equivalent.
func (f *Fabric) Record() (*Tape, error) {
	rec, err := f.record()
	if err != nil {
		return nil, err
	}
	return f.tapeOf(rec)
}

// record is the engine's pass over symbolic data, and the events it left.
func (f *Fabric) record() (*recorder, error) {
	events, total, ops := 0, 0, 0
	base := make([]uint32, len(f.procs)+1)
	for i := range f.procs {
		p := &f.procs[i]
		base[i] = uint32(total)
		total += len(p.acc)
		ops += len(p.ops)
		for k := range p.ops {
			events += p.ops[k].tapeEvents()
		}
	}
	if events > MaxTapeEvents || total > math.MaxUint32 {
		return nil, ErrTapeTooLong
	}
	base[len(f.procs)] = uint32(total)
	f.rec = &recorder{base: base, ops: ops, events: make([]tapeEvent, 0, events)}
	err := f.runToCompletion()
	rec := f.rec
	f.rec = nil
	return rec, err
}

// tapeOf builds the tape of the run f has just completed recording into rec.
func (f *Fabric) tapeOf(rec *recorder) (*Tape, error) {
	stats, err := f.finalStats()
	if err != nil {
		return nil, err
	}
	t := &Tape{
		cycles: f.cycle,
		stats:  stats,
		coords: f.coords,
		off:    make([]int, 0, len(f.procs)+1),
		clkOff: make([]int, 0, len(f.procs)+1),
		runs:   rec.formRuns(),
		events: len(rec.events),
		waves:  int(rec.waves),
	}
	for i := range f.procs {
		t.off = append(t.off, int(rec.base[i]))
		t.clkOff = append(t.clkOff, len(t.clocks))
		t.clocks = append(t.clocks, f.procs[i].clock...)
	}
	t.off = append(t.off, int(rec.base[len(f.procs)]))
	t.clkOff = append(t.clkOff, len(t.clocks))
	return t, nil
}

// tapeEvents is the number of events a completed op leaves on a tape. The
// wavelet protocol makes it a property of the program: an op finishes only
// after exactly its N (and N2) data elements went through.
func (op *Op) tapeEvents() int {
	switch op.Kind {
	case OpSend, OpRecvReduce, OpRecvStore:
		return op.N
	case OpRecvReduceSend:
		return 2 * op.N // each element is reduced, then reloaded into the latch
	case OpSendRecvReduce, OpSendRecvStore:
		return op.N + op.N2
	}
	return 0
}

// Events is the number of elements one walk moves; 0 for a nil tape.
func (t *Tape) Events() int {
	if t == nil {
		return 0
	}
	return t.events
}

// Runs is the number of runs the tape keeps them as; 0 for a nil tape.
func (t *Tape) Runs() int {
	if t == nil {
		return 0
	}
	return len(t.runs)
}

// AccLen is the length of the flat accumulator image Run expects.
func (t *Tape) AccLen() int { return t.off[len(t.coords)] }

// Units is the number of programmed PEs; Unit returns the i-th of them, in
// row-major order, with where its accumulator starts in the flat image and
// how long it is.
func (t *Tape) Units() int { return len(t.coords) }

func (t *Tape) Unit(i int) (c mesh.Coord, base, n int) {
	return t.coords[i], t.off[i], t.off[i+1] - t.off[i]
}

// apply walks the tape over the image. Each element sees the operations the
// engine applied to it, in the engine's order and on the engine's operands,
// so floating-point results are bit-identical to the recorded program run on
// the same inputs.
func (t *Tape) apply(acc []float32) {
	if len(acc) != t.AccLen() {
		panic("fabric: tape run on an accumulator image of the wrong length")
	}
	sp := t.spare.Swap(nil)
	if sp == nil {
		buf := make([]float32, t.waves)
		sp = &buf
	}
	tmp := *sp // every wave is loaded before it is consumed: no clearing between runs
	for _, r := range t.runs {
		a := acc[r.acc : r.acc+r.n]
		w := tmp[r.wave : r.wave+r.n][:len(a)]
		switch r.kind {
		case tapeLoad:
			copy(w, a)
		case tapeStore:
			copy(a, w)
		case tapeReduce + uint32(OpSum):
			for i := range a {
				a[i] += w[i]
			}
		default:
			for i := range a {
				a[i] = ReduceOp(r.kind-tapeReduce).Apply(a[i], w[i])
			}
		}
	}
	t.spare.Store(sp)
}

// Run reproduces the recorded run on new data. acc is the flat image of the
// PEs' initial accumulators (AccLen elements: PE c's at Base(c), zero where
// the PE binds none); Run transforms it in place and returns a Result whose
// accumulators alias it, so the caller hands acc over. The Result equals, bit
// for bit, what Fabric.Run returns for the same program, options and data.
func (t *Tape) Run(acc []float32) *Result {
	t.apply(acc)
	res := &Result{
		Cycles: t.cycles,
		Acc:    make(map[mesh.Coord][]float32, len(t.coords)),
		Clocks: make(map[mesh.Coord][]int64),
		Stats:  t.stats,
	}
	var clocks []int64
	if len(t.clocks) > 0 {
		clocks = append(clocks, t.clocks...)
	}
	for i, c := range t.coords {
		res.Acc[c] = acc[t.off[i]:t.off[i+1]:t.off[i+1]]
		if lo, hi := t.clkOff[i], t.clkOff[i+1]; hi > lo {
			res.Clocks[c] = clocks[lo:hi:hi]
		}
	}
	return res
}

// RunColumnar is Run with the map-free layout of Fabric.RunColumnar: res.Acc
// becomes acc, res.Off is refilled (its storage reused when large enough).
func (t *Tape) RunColumnar(res *ColumnarResult, acc []float32) {
	t.apply(acc)
	res.Cycles = t.cycles
	res.Stats = t.stats
	res.Coords = t.coords
	res.Off = append(res.Off[:0], t.off...)
	res.Acc = acc
	res.Root = nil
	if len(t.coords) > 0 && t.coords[0] == (mesh.Coord{}) { // row-major: the root sorts first
		res.Root = acc[:t.off[1]:t.off[1]]
	}
}

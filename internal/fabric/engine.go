package fabric

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"

	"repro/internal/mesh"
)

// Options configure the physical parameters of the simulated fabric.
type Options struct {
	// TR is the ramp latency in cycles between a processor and its router,
	// in each direction. The paper measures it to be 2 on the WSE-2; zero
	// selects that default, and a negative value selects a literal
	// zero-latency ramp (useful for ablations).
	TR int
	// QueueCap is the per-color per-direction router input queue depth.
	// Hardware queues are shallow; the default of 4 reproduces tight
	// backpressure while letting single-cycle pipelines stream.
	QueueCap int
	// MaxCycles aborts runs that exceed this cycle count (0 = generous
	// default).
	MaxCycles int64
	// ClockSkewMax, when positive, gives each PE a deterministic
	// pseudo-random local clock offset in [0, ClockSkewMax). The paper's
	// PEs have independent clocks (§8.1); the measurement methodology of
	// §8.3 exists to calibrate this away.
	ClockSkewMax int64
	// ThermalNoopRate, when positive, is the per-cycle probability that a
	// processor inserts a no-op, modelling the wafer's thermal throttling
	// (§8.1: "PEs may insert no-ops to regulate thermal stress").
	ThermalNoopRate float64
	// TaskActivation charges the given number of cycles when a receive
	// op consumes its first wavelet, modelling the dataflow task wake-up
	// ("tasks can be activated by wavelets", §2.2). The paper observed
	// this overhead makes the measured Star slower than predicted
	// because it pays per incoming transfer (§8.5). Default 0 (the
	// idealised fabric the paper's model describes).
	TaskActivation int
	// Seed drives the deterministic RNG used for clock skew and thermal
	// no-ops.
	Seed uint64
	// Shards, when > 1, partitions the PEs into that many contiguous
	// row-major bands, each stepped by its own goroutine under a cycle
	// barrier. The engine's intra-cycle semantics are order-independent
	// (queue pushes and pops cross cycle boundaries before becoming
	// visible to the other endpoint), so sharded runs produce bit-identical
	// results to serial runs; sharding only changes wall-clock time.
	//
	// 0 (unset) auto-tunes: fabrics large enough to amortise the cycle
	// barrier are sharded across GOMAXPROCS, small fabrics run the serial
	// engine — see autoShards. Explicit values are honoured exactly: 1 (or
	// any negative value) forces the serial engine, > 1 that many bands.
	// Results are bit-identical in every mode, so auto-tuning never changes
	// what a run computes, only how fast. Shards is ignored (forced serial)
	// when a Tracer is attached.
	Shards int
	// Tracer, when non-nil, records fabric events (wavelet movement,
	// config advancement, op completion) for debugging.
	Tracer *Tracer
}

// DefaultTR is the ramp latency the paper determined for the WSE-2.
const DefaultTR = 2

// DefaultQueueCap is the router input queue depth selected when
// Options.QueueCap is zero or negative.
const DefaultQueueCap = 4

// DefaultMaxCycles is the simulated-cycle budget selected when
// Options.MaxCycles is zero or negative: generous enough for any one-shot
// experiment (serving loops cap it far lower, see wse.Session).
const DefaultMaxCycles = 1 << 34

// withDefaults resolves the zero values that select a default. A negative
// TR, the literal zero-latency ramp, stays negative, so resolving twice
// resolves nothing more: the engine reads it through rampLatency.
func (o Options) withDefaults() Options {
	if o.TR == 0 {
		o.TR = DefaultTR
	}
	if o.QueueCap <= 0 {
		o.QueueCap = DefaultQueueCap
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = DefaultMaxCycles
	}
	return o
}

// rampLatency is the ramp latency options resolved by withDefaults run
// under: TR, or none for a negative TR.
func (o Options) rampLatency() int64 { return int64(max(o.TR, 0)) }

// maxStall bounds the options that hold a wavelet or a processor for a
// number of cycles, TR and TaskActivation, and the queue depth. The engine
// keeps such counts, and the ready cycle of a queued wavelet relative to
// the clock, in 32 bits (see waveEntry); New refuses options beyond it.
const maxStall = 1 << 24

// checkRange refuses options the engine's 32-bit counters cannot hold.
func (o Options) checkRange() error {
	switch {
	case o.TR > maxStall:
		return fmt.Errorf("fabric: ramp latency %d beyond %d cycles", o.TR, maxStall)
	case o.TaskActivation > maxStall:
		return fmt.Errorf("fabric: task activation %d beyond %d cycles", o.TaskActivation, maxStall)
	case o.QueueCap > maxStall:
		return fmt.Errorf("fabric: queue depth %d beyond %d", o.QueueCap, maxStall)
	}
	return nil
}

// Canonical resolves every defaulted field to the concrete value the
// engine would run under, so two Options that execute identically compare
// equal, and execute as the options they came from do. Every negative TR
// becomes -1, the one spelling of a zero-latency ramp (0 would select the
// default). The noise parameters are clamped into their effective ranges, the
// Seed is dropped when nothing draws from the RNG, a negative Shards becomes
// the 1 that forces the serial engine just the same (0, auto-tuning, stays
// 0), and the Tracer handle (a debug attachment, not an execution parameter)
// is cleared. Cache keys and persisted plans are derived from canonical
// options, which is what keeps a plan stored by one release addressable by
// the next.
func (o Options) Canonical() Options {
	o = o.withDefaults()
	if o.TR < 0 {
		o.TR = -1
	}
	if o.ClockSkewMax < 0 {
		o.ClockSkewMax = 0
	}
	if o.ThermalNoopRate <= 0 {
		o.ThermalNoopRate = 0
	}
	if o.TaskActivation < 0 {
		o.TaskActivation = 0
	}
	if o.ClockSkewMax == 0 && o.ThermalNoopRate == 0 {
		o.Seed = 0
	}
	if o.Shards < 0 {
		o.Shards = 1
	}
	o.Tracer = nil
	return o
}

// colorState is a router's runtime state for one color: the active entry
// of its configuration list with the remaining absorb count, and the input
// queue per arrival direction. Color states live in one flat slice grouped
// by router and sorted by color. Scheduling is per router: an active router
// steps its flagged color states in ascending color order, so when two
// colors of one router contend for a wire in the same cycle, the lower
// color wins — in every execution mode, whatever order routers are visited
// in (cross-router interactions all defer to the next cycle).
//
// Everything stepColor would otherwise look up per hop is resolved here
// ahead of time. accept and forward mirror the active configuration and
// are refreshed whenever idx moves. peer never changes for a program: for a
// link direction d it is the color state of the same color at the
// neighbour across d (-1 when there is none) — the downstream target when
// forwarding towards d and the upstream waker when accepting from d. in
// holds the index in Fabric.queues of the queue wavelets arrive in from
// each direction, inbox that of the local processor's inbox for the color;
// a queue nothing in the program can push to is the sealed queue 0. The
// configuration list itself, read only when a control wavelet advances
// it, stays in the spec's routing table (row).
type colorState struct {
	accept      mesh.Direction
	forward     mesh.DirSet
	color       mesh.Color
	active      bool // flagged to step next cycle
	wakePending bool
	fed         mesh.DirSet // the directions whose input queue is not the sealed one
	router      int32
	inbox       int32
	peer        [mesh.Ramp]int32
	in          [mesh.NumDirections]int32
	idx         int32 // active configuration
	times       int   // control wavelets it still absorbs (0 = final)
	row         *ColorConfig
}

// route loads the resolved route of the active configuration.
func (cs *colorState) route() {
	cfg := &cs.row.Cfgs[cs.idx]
	cs.accept, cs.forward = cfg.Accept, cfg.Forward
}

func (cs *colorState) advance() {
	if cs.times == 0 { // final configuration: absorbs controls forever
		return
	}
	cs.times--
	if cs.times == 0 && int(cs.idx) < len(cs.row.Cfgs)-1 {
		cs.idx++
		cs.times = cs.row.Cfgs[cs.idx].Times
		cs.route()
	}
}

// anyVisible reports whether any input queue of the color state holds a
// consumer-visible wavelet (on any side, accepted or not).
func (f *Fabric) anyVisible(cs *colorState) bool {
	for set := cs.fed; set != 0; set &= set - 1 {
		if f.queues[cs.in[bits.TrailingZeros8(uint8(set))]].visLen() > 0 {
			return true
		}
	}
	return false
}

// router is a router's runtime state: where its color states sit, and
// which of its outgoing wires have carried a wavelet this cycle.
type router struct {
	csBase int32       // first colorState of this router in Fabric.colorStates
	colors uint32      // bit c set when the router routes color c
	usedAt int64       // the cycle+1 stamp the wires in used were driven under
	used   mesh.DirSet // wires driven in cycle usedAt-1
	nCS    uint8       // number of color states
	inList bool        // scheduled in a shard's active router list
}

// proc is a processor's runtime state.
type proc struct {
	ops         []Op      // the ops still to run, the current one first
	acc         []float32 // the accumulator, carved from Fabric.accArena
	received    int64
	rng         uint64
	skew        int64
	elem        int
	rElem       int   // inbound progress of full-duplex ops
	accNeed     int   // accumulator length the ops address (resolved from the program)
	clockOff    int   // first of the PE's clock slots in Fabric.clockArena
	actLeft     int32 // remaining task-activation stall cycles (at most maxStall)
	inboxTotal  int32 // wavelets in the inboxes (at most NumColors·QueueCap)
	latchVal    float32
	ctlPhase    bool // data elements sent/consumed; control phase pending
	rDone       bool
	sDone       bool
	actDone     bool // activation already paid for the current op
	latchCtl    bool
	latchFull   bool
	done        bool
	inList      bool
	wakePending bool
}

// Stats aggregates fabric-level counters that correspond directly to the
// paper's cost metrics: Hops is the measured energy E (router-to-router
// wavelet moves), MaxReceived the measured contention C (data wavelets
// consumed by the busiest processor), RampMoves the traffic over processor
// ramps, Noops the thermal no-ops inserted.
type Stats struct {
	Hops        int64
	RampMoves   int64
	MaxReceived int64
	MaxQueueLen int
	Noops       int64
	// Steps counts unit-step invocations (active routers + processors
	// visited across all cycles) — the engine's work measure, as opposed
	// to Cycles, its time measure. In an event-scheduled engine the two
	// diverge exactly when units sleep; Steps/Cycles is the mean active
	// unit count. Counted once per shard per cycle, never in the inner
	// stepping loop.
	Steps int64
}

// Result reports a completed run. The result owns its data: Fabric.Run
// hands it the accumulator arena the run computed in, and the fabric carves
// a fresh one when it is next armed, so a Result stays valid after the
// fabric is Reset and re-run. Reset's only callers are benchmark probes and
// tests; serving paths build a fabric per engine run.
type Result struct {
	// Cycles is the total cycle count until every processor finished and
	// the network drained.
	Cycles int64
	// Acc maps each programmed PE to its final accumulator contents.
	Acc map[mesh.Coord][]float32
	// Clocks maps each PE that samples its clock to its sampled
	// local-clock slots; nil when no PE does.
	Clocks map[mesh.Coord][]int64
	// Stats holds the measured cost metrics.
	Stats Stats
}

// Fabric is an instantiated simulation of a Spec. The engine is
// cycle-stepped but event-scheduled: routers and processors sleep while
// blocked and are woken by exactly the fabric events (queue pushes and
// pops) that can unblock them, so simulation work is proportional to
// wavelet movement (the paper's energy metric) rather than PEs×cycles.
//
// All runtime state lives in flat preallocated arrays (routers, procs,
// color states, queue cursors, one ring slab under every queue, one arena
// under every accumulator), which buys three things: the per-cycle hot
// loop performs no allocation, Reset can re-arm an instance for a fresh
// run without reallocating anything but the accumulator arena a Result
// took, and the state partitions cleanly into contiguous row-major bands
// for the sharded engine (Options.Shards).
//
// Intra-cycle semantics are order-independent: a queue push becomes
// visible to its consumer, and a pop frees space for its producer, only at
// the next cycle boundary. Within one router, color states are stepped in
// ascending color order. Together these make the simulation a function of
// the program alone — stepping units in any order, on any number of
// shards, yields bit-identical results.
type Fabric struct {
	opt         Options
	width       int
	height      int
	coords      []mesh.Coord
	grid        []int32 // dense width*height coord → unit index (-1 = unprogrammed)
	routers     []router
	procs       []proc
	colorStates []colorState
	queues      []waveQueue // every queue's cursors; queue 0 is sealed
	ring        []waveEntry // the slab every queue's window lives in
	ringMask    uint32      // window size - 1 (a power of two ≥ QueueCap)
	ringShift   uint8       // log2 of the window size
	accArena    []float32   // backing store of every proc's accumulator; nil once a Result took it
	clockArena  []int64     // backing store of every proc's clock slots
	cycle       int64

	// lastSpec is the spec the fabric was last resolved against and progs
	// the programs of its programmed PEs in unit order. A Reset with the
	// very same *Spec (a benchmark probe rebinds Init in place and reuses one
	// spec object) skips validation and resolve and only re-arms.
	lastSpec *Spec
	progs    []*Program
	// init, when non-nil, holds the PEs' initial vectors by row-major index
	// in place of the spec's bindings (NewBound).
	init [][]float32

	shards    []shardState
	unitShard []uint16

	workersUp bool
	cmd       []chan phaseToken
	done      chan int

	// interrupt, when non-nil, is polled every interruptStride cycles; a
	// non-nil return aborts the run with that error. It is the watchdog
	// seam: the plan layer points it at the request context so a stuck
	// replay is cut at its deadline instead of spinning to MaxCycles.
	interrupt func() error

	// rec, non-nil only inside Record, switches the processors to symbolic
	// data: wavelets carry wave ids and accumulator touches go to the tape.
	rec *recorder
}

type phaseToken uint8

const (
	phaseStep phaseToken = iota
	phaseSync
	phaseQuit
)

// shardDispatchThreshold is the total active-unit count below which a
// sharded fabric steps the cycle on the coordinating goroutine instead of
// paying two barrier crossings; results are identical either way. It is a
// variable so tests can force the parallel path for small fabrics.
var shardDispatchThreshold = 192

// shardState is one band's execution state: its active lists, deferred
// wake buffers, queue-sync lists and counters. With Shards <= 1 a fabric
// has exactly one shard and the same code runs without barriers.
//
// Active lists hold routers, not color states: routers may be visited in
// any order (their cross-router effects all defer to the next cycle), so
// the lists never need sorting; each visited router steps its flagged
// color states in ascending color order, which is the only ordering the
// semantics require.
type shardState struct {
	f  *Fabric
	id int

	curR, nextR []int32 // active router units
	curP, nextP []int32 // active processor units

	// Queues this shard pushed/popped this cycle; their seen cursors are
	// published at the cycle barrier.
	pushedQ, poppedQ []int32

	// Deferred wakes. Wakes targeting this shard's own units collect in
	// localCS/localP (deduplicated by the target's wakePending flag);
	// wakes crossing shards collect in outCS/outP bucketed by destination
	// and are applied at the cycle barrier by the destination.
	localCS, localP []int32
	outCS, outP     [][]int32

	// The most entries each list above can take in one cycle: a queue is
	// pushed and popped at most once a cycle, a unit or color state woken
	// once. resolve counts them; a run sizes the lists to them up front.
	maxPushed, maxPopped, maxCS, maxP int

	qPushes, qPops int64 // lifetime router-queue traffic (drain detection)
	pending        int   // unfinished procs owned by this shard
	stats          Stats
	err            error
}

// New instantiates a fabric for the given program. The spec is validated
// first; routing tables and processor state are laid out densely over the
// programmed PEs, in the spec's own row-major order.
func New(s *Spec, opt Options) (*Fabric, error) { return NewBound(s, nil, opt) }

// NewBound is New for one run of a program many runs share: the PE at
// row-major index i of the region starts from init[i] in place of its Init
// binding (Spec.PE), and from nothing past the end of init. The spec is only
// read, so runs of one spec may each bind their own vectors at once. A Reset
// with another spec drops the binding.
func NewBound(s *Spec, init [][]float32, opt Options) (*Fabric, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := opt.checkRange(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	n := s.Len()
	f := &Fabric{
		opt:     opt,
		width:   s.Width,
		height:  s.Height,
		coords:  make([]mesh.Coord, 0, n),
		grid:    make([]int32, len(s.place)),
		routers: make([]router, n),
		procs:   make([]proc, n),
		progs:   make([]*Program, 0, n),
		init:    init,
	}
	totalCS := 0
	for idx := range s.place {
		f.grid[idx] = -1
		if p := s.at(idx); p != nil {
			f.grid[idx] = int32(len(f.coords))
			f.coords = append(f.coords, s.coord(idx))
			f.progs = append(f.progs, p)
			totalCS += len(p.Configs)
		}
	}

	// Lay out the color states flat, grouped by router, colors ascending —
	// the order the routing tables are held in.
	f.colorStates = make([]colorState, 0, totalCS)
	for i, prog := range f.progs {
		r := &f.routers[i]
		r.csBase = int32(len(f.colorStates))
		for k := range prog.Configs {
			color := prog.Configs[k].Color
			r.colors |= 1 << color
			f.colorStates = append(f.colorStates, colorState{color: color, router: int32(i)})
		}
		r.nCS = uint8(len(prog.Configs))
	}
	for f.ringMask+1 < uint32(opt.QueueCap) {
		f.ringShift++
		f.ringMask = 1<<f.ringShift - 1
	}

	f.initShards()
	f.lastSpec = s
	f.resolve()
	f.arm()
	return f, nil
}

// unitAt is the unit of the PE at c, or -1 when c is off the grid or
// unprogrammed.
func (f *Fabric) unitAt(c mesh.Coord) int32 {
	if c.X < 0 || c.X >= f.width || c.Y < 0 || c.Y >= f.height {
		return -1
	}
	return f.grid[c.Y*f.width+c.X]
}

// resolve binds the fabric to the program in f.progs: everything that
// depends on the program but not on a run. It points every color state at
// its configuration list and at its peers, gives every queue that anything
// in the program can push to a place in f.queues and a window in the ring
// slab, and carves the clock arena. New runs it once; Reset runs it again
// only when handed a different spec.
func (f *Fabric) resolve() {
	clockTotal := 0
	for i, prog := range f.progs {
		r := &f.routers[i]
		for k := range prog.Configs {
			cs := &f.colorStates[int(r.csBase)+k]
			cs.row = &prog.Configs[k]
			for d := mesh.Direction(0); d < mesh.Ramp; d++ {
				cs.peer[d] = -1
				if nb := f.unitAt(f.coords[i].Add(d)); nb >= 0 {
					cs.peer[d] = f.csIndex(nb, cs.color)
				}
			}
		}
		p := &f.procs[i]
		p.accNeed = prog.AccNeed()
		p.clockOff = clockTotal
		clockTotal += prog.ClockSlots
	}

	// A queue gets a window when something can push to it: an inbox when a
	// configuration of its color delivers to the ramp, a link queue when
	// the upstream router forwards the color across that link, a ramp queue
	// when the processor sends on the color. What the consuming side
	// accepts plays no part, so a wavelet nobody will route still queues up
	// and surfaces as a deadlock.
	//
	// The shards' list bounds are counted on the way: a queue is popped by
	// the shard of the unit it belongs to, and pushed by that shard too but
	// for a link queue, which its upstream router's shard pushes.
	for si := range f.shards {
		sh := &f.shards[si]
		sh.maxPushed, sh.maxPopped, sh.maxCS, sh.maxP = 0, 0, 0, 0
	}
	queues := int32(1) // queue 0 is the sealed one
	var sh *shardState
	newQueue := func(pusher *shardState) int32 {
		pusher.maxPushed++
		sh.maxPopped++
		queues++
		return queues - 1
	}
	for i, prog := range f.progs {
		r := &f.routers[i]
		sh = &f.shards[f.unitShard[i]]
		sh.maxCS += int(r.nCS)
		sh.maxP++
		for k := r.csBase; k < r.csBase+int32(r.nCS); k++ {
			cs := &f.colorStates[k]
			cs.inbox = 0
			if forwardsTo(cs.row.Cfgs, mesh.Ramp) {
				cs.inbox = newQueue(sh)
			}
			cs.in, cs.fed = [mesh.NumDirections]int32{}, 0
			for d := mesh.Direction(0); d < mesh.Ramp; d++ {
				if up := cs.peer[d]; up >= 0 && forwardsTo(f.colorStates[up].row.Cfgs, d.Opposite()) {
					cs.in[d], cs.fed = newQueue(&f.shards[f.unitShard[f.colorStates[up].router]]), cs.fed.Set(d)
				}
			}
		}
		for _, op := range prog.Ops {
			var out mesh.Color
			switch op.Kind {
			case OpSend, OpSendTrigger:
				out = op.Color
			case OpRecvReduceSend, OpSendRecvReduce, OpSendRecvStore:
				out = op.OutColor
			default:
				continue
			}
			if csI := f.csIndex(int32(i), out); csI >= 0 && !f.colorStates[csI].fed.Has(mesh.Ramp) {
				cs := &f.colorStates[csI]
				cs.in[mesh.Ramp], cs.fed = newQueue(sh), cs.fed.Set(mesh.Ramp)
			}
		}
	}
	if int(queues) > cap(f.queues) {
		f.queues = make([]waveQueue, queues)
		f.ring = make([]waveEntry, int(queues)<<f.ringShift)
	}
	f.queues = f.queues[:queues]

	if clockTotal > cap(f.clockArena) {
		f.clockArena = make([]int64, clockTotal)
	}
	f.clockArena = f.clockArena[:clockTotal]
}

// clocks is unit i's clock slots.
func (f *Fabric) clocks(i int) []int64 {
	off := f.procs[i].clockOff
	n := f.progs[i].ClockSlots
	return f.clockArena[off : off+n : off+n]
}

// AccNeed is the accumulator length the program's ops address: they touch
// acc[Off..Off+N), and a PE's buffer must span that even when the PE
// contributes no input of its own.
func (p *Program) AccNeed() int {
	need := 0
	for _, op := range p.Ops {
		switch op.Kind {
		case OpSend, OpRecvReduce, OpRecvReduceSend, OpRecvStore:
			need = max(need, op.Off+op.N)
		case OpSendRecvReduce, OpSendRecvStore:
			need = max(need, op.Off+op.N, op.Off2+op.N2)
		}
	}
	return need
}

// forwardsTo reports whether any configuration of the list forwards to d.
func forwardsTo(cfgs []RouterConfig, d mesh.Direction) bool {
	for i := range cfgs {
		if cfgs[i].Forward.Has(d) {
			return true
		}
	}
	return false
}

// autoShardProcs reports the parallelism auto-sharding divides the fabric
// across. It is a variable so tests can model a many-core host on a small
// one; everywhere else it is GOMAXPROCS.
var autoShardProcs = func() int { return runtime.GOMAXPROCS(0) }

// autoShardMinBand is the smallest PE band worth a dedicated shard
// goroutine under auto-tuning. Sharding pays a per-cycle barrier, and a
// session's worker pool may run several replays at once — each extra
// marginal band multiplies runnable goroutines without adding useful
// parallelism. The replay benchmarks put the sharded crossover between
// the p=512 chain (sharding loses) and the 64×64 grid (sharding wins),
// so auto-tuning keeps anything below two ~2K-PE bands serial. Explicit
// Shards values bypass the floor entirely. A variable so tests can model
// large fabrics cheaply.
var autoShardMinBand = 2048

// autoShards derives the shard count for a fabric of n PEs when
// Options.Shards is left at zero: one band per available CPU, but never
// bands smaller than autoShardMinBand PEs — below that the per-cycle
// barrier costs more than the parallel stepping buys. Fabrics that
// derive one band run the serial engine exactly as an explicit Shards=1
// would.
func autoShards(n int) int {
	s := autoShardProcs()
	if max := n / autoShardMinBand; s > max {
		s = max
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Shards is the number of row-major bands the engine steps: 1 is the serial
// engine.
func (f *Fabric) Shards() int { return len(f.shards) }

// initShards partitions the units into contiguous row-major bands.
func (f *Fabric) initShards() {
	n := f.opt.Shards
	if n == 0 {
		n = autoShards(len(f.procs))
	}
	if n < 1 || f.opt.Tracer != nil {
		n = 1
	}
	if n > len(f.procs) {
		n = len(f.procs)
	}
	if n < 1 {
		n = 1
	}
	f.shards = make([]shardState, n)
	f.unitShard = make([]uint16, len(f.procs))
	for i := range f.unitShard {
		f.unitShard[i] = uint16(i * n / len(f.procs))
	}
	for si := range f.shards {
		sh := &f.shards[si]
		sh.f = f
		sh.id = si
		sh.outCS = make([][]int32, n)
		sh.outP = make([][]int32, n)
		// A band's active lists never outgrow its unit count.
		units := len(f.procs)/n + 1
		sh.curR, sh.nextR = make([]int32, 0, units), make([]int32, 0, units)
		sh.curP, sh.nextP = make([]int32, 0, units), make([]int32, 0, units)
	}
}

// arm stamps the per-run state of the resolved program into the
// preallocated fabric: accumulators from Init, router configs at their
// first entry, empty queues, the deterministic RNG chain, and the initial
// processor wake list. It is the shared tail of New and Reset. It carves
// the accumulators out of the arena, and carves a new arena when the last
// one went to a Result or is too short for the Init vectors now bound.
func (f *Fabric) arm() {
	f.cycle = 0
	clear(f.queues)
	f.queues[0] = sealed
	for si := range f.shards {
		sh := &f.shards[si]
		sh.curR = sh.curR[:0]
		sh.nextR = sh.nextR[:0]
		sh.curP = sh.curP[:0]
		sh.nextP = sh.nextP[:0]
		sh.pushedQ = sh.pushedQ[:0]
		sh.poppedQ = sh.poppedQ[:0]
		sh.localCS = sh.localCS[:0]
		sh.localP = sh.localP[:0]
		for d := range sh.outCS {
			sh.outCS[d] = sh.outCS[d][:0]
			sh.outP[d] = sh.outP[d][:0]
		}
		sh.qPushes, sh.qPops = 0, 0
		sh.pending = 0
		sh.stats = Stats{}
		sh.err = nil
	}
	for k := range f.colorStates {
		cs := &f.colorStates[k]
		cs.idx = 0
		cs.times = cs.row.Cfgs[0].Times
		cs.route()
		cs.active = false
		cs.wakePending = false
	}

	accTotal := 0
	for i := range f.progs {
		accTotal += max(f.procs[i].accNeed, len(f.initOf(i)))
	}
	if accTotal > len(f.accArena) {
		f.accArena = make([]float32, accTotal)
	}
	acc := f.accArena
	rng := f.opt.Seed | 1
	for i, prog := range f.progs {
		r := &f.routers[i]
		r.usedAt, r.used = 0, 0
		r.inList = false

		p := &f.procs[i]
		init := f.initOf(i)
		n := max(p.accNeed, len(init))
		p.acc, acc = acc[:n:n], acc[n:]
		clear(p.acc[copy(p.acc, init):])
		clear(f.clocks(i))
		rng = splitmix(rng)
		p.rng = rng
		p.skew = 0
		if f.opt.ClockSkewMax > 0 {
			rng = splitmix(rng)
			p.skew = int64(rng % uint64(f.opt.ClockSkewMax))
		}
		p.ops = prog.Ops
		p.elem, p.rElem = 0, 0
		p.ctlPhase, p.rDone, p.sDone = false, false, false
		p.actLeft, p.actDone = 0, false
		p.inboxTotal = 0
		p.latchVal, p.latchCtl, p.latchFull = 0, false, false
		p.received = 0
		p.inList = false
		p.wakePending = false
		p.done = len(p.ops) == 0
		if !p.done {
			sh := &f.shards[f.unitShard[i]]
			sh.pending++
			p.inList = true
			sh.curP = append(sh.curP, int32(i))
		}
	}
}

// initOf is unit i's initial vector: its binding when the fabric has one,
// else its PE's Init binding in the spec.
func (f *Fabric) initOf(i int) []float32 {
	k := f.coords[i].Y*f.width + f.coords[i].X
	if f.init == nil {
		return f.lastSpec.initOf(k)
	}
	if k < len(f.init) {
		return f.init[k]
	}
	return nil
}

// Reset re-arms the fabric for a fresh run of a spec with the same
// structure (same PE set and the same routing colors per PE) as the one it
// was built from — a benchmark probe's or a test's rebinding of the same
// program with new Init vectors; serving paths build a fabric per engine
// run, and a ratchet keeps Reset out of internal/plan. Handed the very spec
// object it was last resolved against, it assumes only Init vectors were
// rebound: queue windows, active lists and routing state are all reused,
// and the accumulator arena too unless the last Run handed it to its
// Result (then, or when the new Init vectors outgrow it, a fresh one is
// carved). Any other spec is validated and resolved afresh (programs,
// routes and queue windows may all differ) on the same flat arrays. Either
// way the deterministic RNG chain (clock skew, thermal no-ops) is restored
// exactly, so a Reset fabric reproduces a fresh New bit for bit.
func (f *Fabric) Reset(s *Spec) error {
	if s != f.lastSpec {
		if s.Width != f.width || s.Height != f.height {
			return fmt.Errorf("fabric: reset with %dx%d spec, fabric is %dx%d", s.Width, s.Height, f.width, f.height)
		}
		if s.Len() != len(f.coords) {
			return fmt.Errorf("fabric: reset with %d PEs, fabric has %d", s.Len(), len(f.coords))
		}
		if err := s.Validate(); err != nil {
			return err
		}
		for i, c := range f.coords {
			prog := s.At(c)
			if prog == nil {
				return fmt.Errorf("fabric: reset spec lacks PE %v", c)
			}
			r := &f.routers[i]
			if len(prog.Configs) != int(r.nCS) {
				return fmt.Errorf("fabric: reset PE %v has %d colors, fabric has %d", c, len(prog.Configs), r.nCS)
			}
			for k := range prog.Configs {
				if want := f.colorStates[int(r.csBase)+k].color; prog.Configs[k].Color != want {
					return fmt.Errorf("fabric: reset PE %v lacks color %d", c, want)
				}
			}
		}
		for i, c := range f.coords {
			f.progs[i] = s.At(c)
		}
		f.lastSpec, f.init = s, nil
		f.resolve()
	}
	f.arm()
	return nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// csIndex returns the flat color-state index of (unit, color), or -1. A
// router's color states are its colors in ascending order, so the offset of
// c in the group is the number of the router's colors below it.
func (f *Fabric) csIndex(unit int32, c mesh.Color) int32 {
	r := &f.routers[unit]
	bit := uint32(1) << c
	if r.colors&bit == 0 {
		return -1
	}
	return r.csBase + int32(bits.OnesCount32(r.colors&(bit-1)))
}

// inbox returns unit i's inbox queue for a color: the queue its router
// delivers the color into, or the sealed queue 0.
func (f *Fabric) inbox(i int32, c mesh.Color) int32 {
	csI := f.csIndex(i, c)
	if csI < 0 {
		return 0
	}
	return f.colorStates[csI].inbox
}

// wakeCS defers a wake of a color state to the next cycle. Wakes cross the
// cycle barrier even within one shard so that serial and sharded execution
// see identical schedules; own-shard wakes are deduplicated at emit time
// through the target's wakePending flag (safe: only the owner touches it).
func (sh *shardState) wakeCS(csI int32) {
	if csI < 0 {
		return
	}
	cs := &sh.f.colorStates[csI]
	dest := int(sh.f.unitShard[cs.router])
	if dest == sh.id {
		if !cs.wakePending {
			cs.wakePending = true
			sh.localCS = append(sh.localCS, csI)
		}
		return
	}
	sh.outCS[dest] = append(sh.outCS[dest], csI)
}

// wakeProc defers a wake of a processor to the next cycle.
func (sh *shardState) wakeProc(i int32) {
	p := &sh.f.procs[i]
	dest := int(sh.f.unitShard[i])
	if dest == sh.id {
		if !p.wakePending {
			p.wakePending = true
			sh.localP = append(sh.localP, i)
		}
		return
	}
	sh.outP[dest] = append(sh.outP[dest], i)
}

// scheduleCS flags a color state to step next cycle and schedules its
// router. Called only by the owner shard (during sync for wakes, during
// step for stays).
func (sh *shardState) scheduleCS(csI int32) {
	f := sh.f
	cs := &f.colorStates[csI]
	cs.active = true
	r := &f.routers[cs.router]
	if !r.inList {
		r.inList = true
		sh.nextR = append(sh.nextR, cs.router)
	}
}

func (sh *shardState) stayProc(i int32) {
	p := &sh.f.procs[i]
	if !p.inList && !p.done {
		p.inList = true
		sh.nextP = append(sh.nextP, i)
	}
}

// phaseStep processes this shard's active units for one cycle. Each active
// router steps its flagged color states in ascending color order; routers
// themselves may be visited in any order. Routers run before processors
// (matching the serial loop's router-then-processor order within a cycle,
// observable through the undelivered-inbox protocol check).
func (sh *shardState) phaseStep() {
	f := sh.f
	sh.stats.Steps += int64(len(sh.curR) + len(sh.curP))
	for _, ri := range sh.curR {
		r := &f.routers[ri]
		r.inList = false
		stay := false
		for k := r.csBase; k < r.csBase+int32(r.nCS); k++ {
			cs := &f.colorStates[k]
			if !cs.active {
				continue
			}
			cs.active = false
			if sh.stepColor(k) {
				cs.active = true
				stay = true
			}
		}
		if stay && !r.inList {
			r.inList = true
			sh.nextR = append(sh.nextR, ri)
		}
	}
	for _, pi := range sh.curP {
		p := &f.procs[pi]
		p.inList = false
		stay, err := sh.stepProc(pi)
		if err != nil {
			sh.err = err
			return
		}
		if stay {
			sh.stayProc(pi)
		}
	}
}

// phaseSync runs at the cycle barrier: it publishes this shard's queue
// operations, applies wakes addressed to it (from every shard, itself
// included), and swaps in the next cycle's active lists.
func (sh *shardState) phaseSync() {
	f := sh.f
	for _, qi := range sh.pushedQ {
		f.queues[qi].syncProducer()
	}
	for _, qi := range sh.poppedQ {
		f.queues[qi].syncConsumer()
	}
	sh.pushedQ = sh.pushedQ[:0]
	sh.poppedQ = sh.poppedQ[:0]

	for _, csI := range sh.localCS {
		f.colorStates[csI].wakePending = false
		sh.scheduleCS(csI)
	}
	sh.localCS = sh.localCS[:0]
	for _, pi := range sh.localP {
		f.procs[pi].wakePending = false
		sh.stayProc(pi)
	}
	sh.localP = sh.localP[:0]
	if len(f.shards) > 1 {
		for si := range f.shards {
			src := &f.shards[si]
			if si == sh.id {
				continue
			}
			for _, csI := range src.outCS[sh.id] {
				sh.scheduleCS(csI)
			}
			src.outCS[sh.id] = src.outCS[sh.id][:0]
			for _, pi := range src.outP[sh.id] {
				sh.stayProc(pi)
			}
			src.outP[sh.id] = src.outP[sh.id][:0]
		}
	}

	sh.curR = sh.curR[:0]
	sh.curR, sh.nextR = sh.nextR, sh.curR
	sh.curP = sh.curP[:0]
	sh.curP, sh.nextP = sh.nextP, sh.curP
}

// Run executes the program to completion and returns the result. It fails
// with a diagnostic error on deadlock (all units blocked while work
// remains), protocol violations (control wavelets out of place), or cycle
// overrun.
func (f *Fabric) Run() (*Result, error) {
	if err := f.runToCompletion(); err != nil {
		return nil, err
	}
	return f.result()
}

// RunColumnar is Run with map-free result assembly: the final
// accumulators are copied, concatenated, into res (see ColumnarResult),
// reusing res's buffers across calls, and no per-PE maps or clock samples
// are built. The fabric keeps its accumulator arena, so a Reset after it
// allocates nothing. It exists for the batch-replay path, where result-map
// construction is the dominant per-run fixed cost.
func (f *Fabric) RunColumnar(res *ColumnarResult) error {
	if err := f.runToCompletion(); err != nil {
		return err
	}
	return f.resultColumnar(res)
}

// interruptStride is how many cycles pass between watchdog polls. A
// power of two keeps the check a mask + branch; at ~ns per cycle the
// poll latency ceiling is microseconds, far below any useful deadline.
const interruptStride = 1024

// SetInterrupt installs (or, with nil, removes) a watchdog polled every
// interruptStride cycles during runToCompletion; a non-nil return aborts
// the run with that error wrapped. The hook must be fast and must not
// touch the fabric. Callers set it per run and clear it afterwards — a
// fabric Reset and run again keeps its hook, which would outlive its request.
func (f *Fabric) SetInterrupt(poll func() error) {
	f.interrupt = poll
}

// runToCompletion steps the engine until the program finishes and the
// network drains; result assembly is the caller's choice (maps via
// result, flat via resultColumnar).
func (f *Fabric) runToCompletion() error {
	defer f.stopWorkers()
	for si := range f.shards {
		f.shards[si].presize()
	}
	for {
		if f.interrupt != nil && f.cycle&(interruptStride-1) == 0 {
			if err := f.interrupt(); err != nil {
				return fmt.Errorf("fabric: interrupted at cycle %d: %w", f.cycle, err)
			}
		}
		if f.cycle&(ageRingStride-1) == 0 && f.cycle != 0 {
			f.ageRing()
		}
		pending, inflight, active := 0, int64(0), 0
		for si := range f.shards {
			sh := &f.shards[si]
			if sh.err != nil {
				return sh.err
			}
			pending += sh.pending
			inflight += sh.qPushes - sh.qPops
			active += len(sh.curR) + len(sh.curP)
		}
		if pending == 0 && inflight == 0 {
			break
		}
		if active == 0 {
			return fmt.Errorf("fabric: deadlock at cycle %d; %s", f.cycle, f.describeStall())
		}
		if f.cycle >= f.opt.MaxCycles {
			return fmt.Errorf("fabric: exceeded %d cycles; %s", f.opt.MaxCycles, f.describeStall())
		}
		// A recording run steps every band on this goroutine: one recorder,
		// one event order, and the schedule is the same either way.
		if len(f.shards) > 1 && active >= shardDispatchThreshold && f.rec == nil {
			f.dispatch(phaseStep)
			f.dispatch(phaseSync)
		} else {
			for si := range f.shards {
				f.shards[si].phaseStep()
			}
			for si := range f.shards {
				f.shards[si].phaseSync()
			}
		}
		f.cycle++
	}
	return nil
}

// presize gives the shard's per-cycle lists room for the most they can take
// in one cycle, so that a run allocates nothing however long it runs. New
// leaves them to the first run, which is where they are used.
func (sh *shardState) presize() {
	grow := func(l []int32, n int) []int32 {
		if cap(l) < n {
			return make([]int32, 0, n)
		}
		return l
	}
	sh.pushedQ = grow(sh.pushedQ, sh.maxPushed)
	sh.poppedQ = grow(sh.poppedQ, sh.maxPopped)
	sh.localCS = grow(sh.localCS, sh.maxCS)
	sh.localP = grow(sh.localP, sh.maxP)
}

// dispatch fans one phase out to the worker goroutines and waits for all
// of them — the cycle barrier of the sharded engine.
func (f *Fabric) dispatch(ph phaseToken) {
	if !f.workersUp {
		f.startWorkers()
	}
	for si := range f.shards {
		f.cmd[si] <- ph
	}
	for range f.shards {
		<-f.done
	}
}

func (f *Fabric) startWorkers() {
	f.cmd = make([]chan phaseToken, len(f.shards))
	f.done = make(chan int, len(f.shards))
	for si := range f.shards {
		f.cmd[si] = make(chan phaseToken)
		go func(sh *shardState, cmd chan phaseToken) {
			for ph := range cmd {
				switch ph {
				case phaseStep:
					sh.phaseStep()
				case phaseSync:
					sh.phaseSync()
				case phaseQuit:
					f.done <- sh.id
					return
				}
				f.done <- sh.id
			}
		}(&f.shards[si], f.cmd[si])
	}
	f.workersUp = true
}

func (f *Fabric) stopWorkers() {
	if !f.workersUp {
		return
	}
	f.dispatch(phaseQuit)
	for si := range f.cmd {
		close(f.cmd[si])
	}
	f.cmd, f.done = nil, nil
	f.workersUp = false
}

// finalStats is the terminal step every kind of completed run shares: it
// refuses a run that left wavelets in a processor's inbox and sums the
// per-shard counters into the run's Stats.
func (f *Fabric) finalStats() (Stats, error) {
	var st Stats
	for si := range f.shards {
		sh := &f.shards[si]
		st.Hops += sh.stats.Hops
		st.RampMoves += sh.stats.RampMoves
		st.Noops += sh.stats.Noops
		st.Steps += sh.stats.Steps
		st.MaxQueueLen = max(st.MaxQueueLen, sh.stats.MaxQueueLen)
	}
	for i := range f.procs {
		p := &f.procs[i]
		if p.inboxTotal > 0 {
			return Stats{}, fmt.Errorf("fabric: PE %v finished with %d unconsumed inbox wavelets", f.coords[i], p.inboxTotal)
		}
		st.MaxReceived = max(st.MaxReceived, p.received)
	}
	return st, nil
}

// result builds the Result. It hands the accumulator arena over instead of
// copying it: the fabric lets go of it, and the next arm carves another.
// Clock samples, taken only by the measurement programs, are copied, and
// the map is built only when some PE samples its clock.
func (f *Fabric) result() (*Result, error) {
	stats, err := f.finalStats()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Cycles: f.cycle,
		Acc:    make(map[mesh.Coord][]float32, len(f.coords)),
		Stats:  stats,
	}
	for i, c := range f.coords {
		p := &f.procs[i]
		res.Acc[c], p.acc = p.acc, nil
	}
	f.accArena = nil
	if len(f.clockArena) > 0 {
		res.Clocks = make(map[mesh.Coord][]int64)
		clocks := slices.Clone(f.clockArena)
		for i, c := range f.coords {
			if off, n := f.procs[i].clockOff, f.progs[i].ClockSlots; n > 0 {
				res.Clocks[c] = clocks[off : off+n : off+n]
			}
		}
	}
	return res, nil
}

// stepColor attempts to route the head wavelet of one color at one router.
// It returns true when the color state should stay scheduled (it moved a
// wavelet and has more, or it is waiting on a wire or on a ramp-transit
// delay); it returns false when the state goes to sleep, to be woken by a
// push or a downstream pop.
func (sh *shardState) stepColor(csI int32) bool {
	f := sh.f
	cs := &f.colorStates[csI]
	accept, forward := cs.accept, cs.forward
	qi := cs.in[accept]
	e, ok := f.peek(qi)
	if !ok {
		return false // nothing visible on the accepted side; a push or config advance will wake us
	}
	if e.inTransit(f.cycle) {
		return true // in ramp/link transit: retry next cycle
	}
	i := cs.router
	r := &f.routers[i]
	qcap := f.opt.QueueCap
	stamp := f.cycle + 1
	// Check every forward target; multicast moves atomically or not at all.
	// Iterating set bits touches only the actual targets (usually one), each
	// already resolved in cs.peer. This unit is the only producer of its
	// target queues, so the feasibility result cannot change before the
	// commit pass below.
	for set := forward; set != 0; set &= set - 1 {
		d := mesh.Direction(bits.TrailingZeros8(uint8(set)))
		if r.usedAt == stamp && r.used.Has(d) {
			return true // wire contention: retry next cycle
		}
		if d == mesh.Ramp {
			if cs.inbox == 0 {
				return false // no inbox for the color: surfaces as deadlock
			}
			if f.queues[cs.inbox].prodLen() >= qcap {
				return false // sleep until the processor drains its inbox
			}
			continue
		}
		t := cs.peer[d]
		if t < 0 {
			return false // off-grid or unroutable color downstream: surfaces as deadlock
		}
		if !f.queues[f.colorStates[t].in[d.Opposite()]].hasSpace(qcap) {
			return false // sleep until downstream pops
		}
	}
	f.queues[qi].pop()
	sh.poppedQ = append(sh.poppedQ, qi)
	sh.qPops++
	if f.opt.Tracer != nil {
		f.opt.Tracer.record(TraceEvent{Cycle: f.cycle, PE: f.coords[i], Kind: EvRoute, Color: cs.color, Forward: forward, Ctl: e.ctl()})
	}
	// Popping frees space: wake whoever fills this queue.
	if accept == mesh.Ramp {
		sh.wakeProc(i)
	} else {
		sh.wakeCS(cs.peer[accept])
	}
	if r.usedAt != stamp {
		r.usedAt, r.used = stamp, 0
	}
	r.used |= forward
	for set := forward; set != 0; set &= set - 1 {
		d := mesh.Direction(bits.TrailingZeros8(uint8(set)))
		if d == mesh.Ramp {
			f.push(cs.inbox, e.readyFrom(f.cycle+f.opt.rampLatency()))
			sh.pushedQ = append(sh.pushedQ, cs.inbox)
			f.procs[i].inboxTotal++
			sh.stats.RampMoves++
			sh.wakeProc(i)
			if f.opt.Tracer != nil {
				f.opt.Tracer.record(TraceEvent{Cycle: f.cycle, PE: f.coords[i], Kind: EvDeliver, Color: cs.color, Ctl: e.ctl()})
			}
			continue
		}
		t := cs.peer[d]
		nq := f.colorStates[t].in[d.Opposite()]
		f.push(nq, e.readyFrom(stamp))
		sh.pushedQ = append(sh.pushedQ, nq)
		sh.qPushes++
		sh.stats.Hops++
		if l := f.queues[nq].prodLen(); l > sh.stats.MaxQueueLen {
			sh.stats.MaxQueueLen = l
		}
		sh.wakeCS(t)
	}
	if e.ctl() {
		cs.advance()
		if f.opt.Tracer != nil {
			f.opt.Tracer.record(TraceEvent{Cycle: f.cycle, PE: f.coords[i], Kind: EvAdvance, Color: cs.color, Ctl: true})
		}
	}
	if f.queues[qi].visLen() > 0 { // streaming fast path: more work behind the head
		return true
	}
	return f.anyVisible(cs)
}

// pushRamp injects a wavelet from processor i into its router; the wavelet
// becomes routable T_R cycles after the send instruction issues.
func (sh *shardState) pushRamp(i int32, w Wavelet) bool {
	f := sh.f
	csI := f.csIndex(i, w.Color)
	if csI < 0 {
		return false
	}
	qi := f.colorStates[csI].in[mesh.Ramp]
	if !f.push(qi, queued(w, f.cycle+f.opt.rampLatency())) {
		return false
	}
	sh.pushedQ = append(sh.pushedQ, qi)
	sh.qPushes++
	sh.stats.RampMoves++
	sh.wakeCS(csI)
	if f.opt.Tracer != nil {
		f.opt.Tracer.record(TraceEvent{Cycle: f.cycle, PE: f.coords[i], Kind: EvInject, Color: w.Color, Ctl: w.Ctl})
	}
	return true
}

type popState uint8

const (
	popEmpty popState = iota
	popNotReady
	popOK
)

func (sh *shardState) popInbox(i int32, c mesh.Color) (Wavelet, popState) {
	f := sh.f
	csI := f.csIndex(i, c)
	if csI < 0 {
		return Wavelet{}, popEmpty
	}
	qi := f.colorStates[csI].inbox
	e, ok := f.peek(qi)
	if !ok {
		return Wavelet{}, popEmpty
	}
	if e.inTransit(f.cycle) {
		return Wavelet{}, popNotReady
	}
	f.queues[qi].pop()
	sh.poppedQ = append(sh.poppedQ, qi)
	f.procs[i].inboxTotal--
	// Draining the inbox may unblock the router's ramp delivery.
	sh.wakeCS(csI)
	if f.opt.Tracer != nil {
		f.opt.Tracer.record(TraceEvent{Cycle: f.cycle, PE: f.coords[i], Kind: EvConsume, Color: c, Ctl: e.ctl()})
	}
	return e.wavelet(c), popOK
}

// stepProc advances one processor by one cycle. It returns whether the
// processor should stay scheduled next cycle.
func (sh *shardState) stepProc(i int32) (bool, error) {
	f := sh.f
	p := &f.procs[i]
	if p.done {
		return false, nil
	}
	// Zero-cost ops (clock samples) execute immediately in program order.
	for len(p.ops) > 0 && p.ops[0].Kind == OpSampleClock {
		f.clockArena[p.clockOff+p.ops[0].Slot] = f.cycle + p.skew
		p.ops = p.ops[1:]
	}
	if len(p.ops) == 0 {
		if p.inboxTotal > 0 {
			return false, f.failf(i, "program finished with %d undelivered inbox wavelets", p.inboxTotal)
		}
		p.done = true
		sh.pending--
		return false, nil
	}
	if f.opt.ThermalNoopRate > 0 {
		p.rng = splitmix(p.rng)
		if float64(p.rng%(1<<20))/float64(1<<20) < f.opt.ThermalNoopRate {
			sh.stats.Noops++
			return true, nil
		}
	}
	op := &p.ops[0]
	switch op.Kind {
	case OpSend:
		if !p.ctlPhase {
			val := p.acc[op.Off+p.elem]
			if f.rec != nil {
				val = f.rec.wave()
			}
			if sh.pushRamp(i, Wavelet{Val: val, Color: op.Color}) {
				if f.rec != nil {
					f.rec.load(i, op.Off+p.elem)
				}
				p.elem++
				if p.elem == op.N {
					p.ctlPhase = true
				}
				return true, nil
			}
			return false, nil // ramp full: woken by ramp-queue pop
		}
		if sh.pushRamp(i, Wavelet{Color: op.Color, Ctl: true}) {
			p.finishOp()
			return true, nil
		}
		return false, nil

	case OpSendTrigger:
		if sh.pushRamp(i, Wavelet{Color: op.Color}) {
			p.finishOp()
			return true, nil
		}
		return false, nil

	case OpRecvReduce, OpRecvStore:
		if stay, gated := sh.activationStall(i, op.Color); gated {
			return stay, nil
		}
		w, st := sh.popInbox(i, op.Color)
		if st == popEmpty {
			return false, nil
		}
		if st == popNotReady {
			return true, nil
		}
		if w.Ctl {
			if p.elem != op.N {
				return false, f.failf(i, "%v: control after %d/%d elements", op.Kind, p.elem, op.N)
			}
			p.finishOp()
			return true, nil
		}
		if p.elem >= op.N {
			return false, f.failf(i, "%v: data wavelet beyond %d elements", op.Kind, op.N)
		}
		switch {
		case f.rec != nil:
			f.rec.recv(i, op.Off+p.elem, op, w)
		case op.Kind == OpRecvReduce:
			p.acc[op.Off+p.elem] = op.Reduce.Apply(p.acc[op.Off+p.elem], w.Val)
		default:
			p.acc[op.Off+p.elem] = w.Val
		}
		p.elem++
		p.received++
		return true, nil

	case OpSendRecvReduce, OpSendRecvStore:
		return sh.stepSendRecv(i, op)

	case OpRecvReduceSend:
		progress := false
		if p.latchFull {
			if sh.pushRamp(i, Wavelet{Val: p.latchVal, Color: op.OutColor, Ctl: p.latchCtl}) {
				wasCtl := p.latchCtl
				p.latchFull = false
				p.latchCtl = false
				progress = true
				if wasCtl {
					p.finishOp()
					return true, nil
				}
			} else if p.latchCtl || p.elem == op.N {
				// Nothing left to receive; blocked purely on the ramp.
				return false, nil
			}
		}
		if !p.latchFull {
			if stay, gated := sh.activationStall(i, op.Color); gated {
				return stay || progress, nil
			}
			w, st := sh.popInbox(i, op.Color)
			switch st {
			case popOK:
				if w.Ctl {
					if p.elem != op.N {
						return false, f.failf(i, "recv-reduce-send: control after %d/%d elements", p.elem, op.N)
					}
					p.latchFull = true
					p.latchCtl = true
				} else {
					if p.elem >= op.N {
						return false, f.failf(i, "recv-reduce-send: data wavelet beyond %d elements", op.N)
					}
					if f.rec != nil {
						// The latch forwards the element as reduced: a new
						// wave loaded from it.
						f.rec.recv(i, op.Off+p.elem, op, w)
						p.latchVal = f.rec.wave()
						f.rec.load(i, op.Off+p.elem)
					} else {
						v := op.Reduce.Apply(p.acc[op.Off+p.elem], w.Val)
						p.acc[op.Off+p.elem] = v
						p.latchVal = v
					}
					p.latchFull = true
					p.elem++
					p.received++
				}
				return true, nil
			case popNotReady:
				return true, nil
			case popEmpty:
				// Stay scheduled if the latch made progress or still holds
				// data (it will need the ramp next cycle); otherwise sleep
				// until the inbox fills.
				return progress || p.latchFull, nil
			}
		}
		return progress, nil

	case OpRecvTrigger:
		w, st := sh.popInbox(i, op.Color)
		if st == popEmpty {
			return false, nil
		}
		if st == popNotReady {
			return true, nil
		}
		if w.Ctl {
			return false, f.failf(i, "recv-trigger: unexpected control wavelet")
		}
		p.finishOp()
		return true, nil

	case OpBusyWrite:
		p.elem++
		if p.elem >= op.N {
			p.finishOp()
		}
		return true, nil
	}
	return false, f.failf(i, "unknown op kind %d", op.Kind)
}

// stepSendRecv advances the full-duplex op: one outgoing and one incoming
// wavelet per cycle, using both directions of the bidirectional ramp.
func (sh *shardState) stepSendRecv(i int32, op *Op) (bool, error) {
	f := sh.f
	p := &f.procs[i]
	progress := false
	// Outbound side: stream data then the trailing control.
	if !p.sDone {
		switch {
		case p.elem < op.N:
			val := p.acc[op.Off+p.elem]
			if f.rec != nil {
				val = f.rec.wave()
			}
			if sh.pushRamp(i, Wavelet{Val: val, Color: op.OutColor}) {
				if f.rec != nil {
					f.rec.load(i, op.Off+p.elem)
				}
				p.elem++
				progress = true
			}
		default:
			if sh.pushRamp(i, Wavelet{Color: op.OutColor, Ctl: true}) {
				p.sDone = true
				progress = true
			}
		}
	}
	// Inbound side.
	notReady := false
	if !p.rDone {
		w, st := sh.popInbox(i, op.Color)
		switch st {
		case popOK:
			if w.Ctl {
				if p.rElem != op.N2 {
					return false, f.failf(i, "%v: control after %d/%d elements", op.Kind, p.rElem, op.N2)
				}
				p.rDone = true
			} else {
				if p.rElem >= op.N2 {
					return false, f.failf(i, "%v: data wavelet beyond %d elements", op.Kind, op.N2)
				}
				switch {
				case f.rec != nil:
					f.rec.recv(i, op.Off2+p.rElem, op, w)
				case op.Kind == OpSendRecvReduce:
					p.acc[op.Off2+p.rElem] = op.Reduce.Apply(p.acc[op.Off2+p.rElem], w.Val)
				default:
					p.acc[op.Off2+p.rElem] = w.Val
				}
				p.rElem++
				p.received++
			}
			progress = true
		case popNotReady:
			notReady = true
		}
	}
	if p.sDone && p.rDone {
		p.finishOp()
		return true, nil
	}
	// Stay scheduled while anything moved or is in ramp transit; sleep
	// otherwise (woken by a ramp-queue pop or an inbox push).
	return progress || notReady, nil
}

func (p *proc) finishOp() {
	p.ops = p.ops[1:]
	p.elem = 0
	p.ctlPhase = false
	p.rElem = 0
	p.rDone = false
	p.sDone = false
	p.actLeft = 0
	p.actDone = false
}

// activationStall implements the per-transfer task wake-up charge: once
// the op's first wavelet is available, TaskActivation cycles elapse
// before the processor consumes anything. Returns (stay, gated): gated
// means the caller must not consume this cycle.
func (sh *shardState) activationStall(i int32, color mesh.Color) (bool, bool) {
	f := sh.f
	p := &f.procs[i]
	if f.opt.TaskActivation <= 0 || p.actDone {
		return false, false
	}
	e, ok := f.peek(f.inbox(i, color))
	if !ok {
		return false, true // nothing arrived yet: sleep until a push
	}
	if e.inTransit(f.cycle) {
		return true, true // in ramp transit: retry next cycle
	}
	if p.actLeft == 0 {
		p.actLeft = int32(f.opt.TaskActivation)
	}
	p.actLeft--
	if p.actLeft == 0 {
		p.actDone = true
	}
	return true, true
}

func (f *Fabric) failf(i int32, format string, args ...any) error {
	return fmt.Errorf("fabric: PE %v at cycle %d: %s", f.coords[i], f.cycle, fmt.Sprintf(format, args...))
}

// describeStall summarises blocked processors and queued wavelets for
// deadlock diagnostics.
func (f *Fabric) describeStall() string {
	var b strings.Builder
	blocked := 0
	queued := int64(0)
	for si := range f.shards {
		queued += f.shards[si].qPushes - f.shards[si].qPops
	}
	for i := range f.procs {
		p := &f.procs[i]
		if p.done {
			continue
		}
		if blocked < 8 {
			if len(p.ops) > 0 {
				op := p.ops[0]
				fmt.Fprintf(&b, "PE %v blocked on op %d %v color=%d elem=%d/%d inbox=%d; ",
					f.coords[i], len(f.progs[i].Ops)-len(p.ops), op.Kind, op.Color, p.elem, op.N, p.inboxTotal)
			} else {
				fmt.Fprintf(&b, "PE %v drained ops, inbox=%d; ", f.coords[i], p.inboxTotal)
			}
		}
		blocked++
	}
	fmt.Fprintf(&b, "%d blocked PEs, %d queued wavelets", blocked, queued)
	return b.String()
}

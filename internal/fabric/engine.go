package fabric

import (
	"fmt"
	"math/bits"
	"runtime"
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

func (o Options) withDefaults() Options {
	if o.TR == 0 {
		o.TR = DefaultTR
	}
	if o.TR < 0 {
		o.TR = 0
	}
	if o.QueueCap <= 0 {
		o.QueueCap = DefaultQueueCap
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = DefaultMaxCycles
	}
	return o
}

// Canonical resolves every defaulted field to the concrete value the
// engine would run under, so two Options that execute identically compare
// equal. The noise parameters are clamped into their effective ranges, the
// Seed is dropped when nothing draws from the RNG, Shards at or below one
// collapses to the serial engine's zero, and the Tracer handle (a debug
// attachment, not an execution parameter) is cleared. Cache keys and
// persisted plans are derived from canonical options, which is what keeps
// a plan stored by one release addressable by the next.
func (o Options) Canonical() Options {
	o = o.withDefaults()
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
	if o.Shards <= 1 {
		o.Shards = 0
	}
	o.Tracer = nil
	return o
}

// colorState is a router's runtime state for one color: the configuration
// list with the active index and remaining absorb count, and the input
// queue per arrival direction. Color states live in one flat slice grouped
// by router and sorted by color. Scheduling is per router: an active router
// steps its flagged color states in ascending color order, so when two
// colors of one router contend for a wire in the same cycle, the lower
// color wins — in every execution mode, whatever order routers are visited
// in (cross-router interactions all defer to the next cycle).
//
// Everything stepColor would otherwise look up per hop is resolved here
// ahead of time. accept and forward mirror configs[idx] and are refreshed
// whenever idx moves. peer never changes for a program: for a link
// direction d it is the color state of the same color at the neighbour
// across d (-1 when there is none) — the downstream target when forwarding
// towards d and the upstream waker when accepting from d; peer[Ramp] is the
// index of the local processor's inbox for the color (-1 when no
// configuration delivers to the ramp).
type colorState struct {
	accept      mesh.Direction
	forward     mesh.DirSet
	color       mesh.Color
	active      bool // flagged to step next cycle
	wakePending bool
	router      int32
	peer        [mesh.NumDirections]int32
	queues      [mesh.NumDirections]waveQueue
	idx         int
	times       int
	configs     []RouterConfig
}

// route loads the resolved route of the active configuration.
func (cs *colorState) route() {
	cfg := &cs.configs[cs.idx]
	cs.accept, cs.forward = cfg.Accept, cfg.Forward
}

func (cs *colorState) advance() {
	if cs.times == 0 { // final configuration: absorbs controls forever
		return
	}
	cs.times--
	if cs.times == 0 && cs.idx < len(cs.configs)-1 {
		cs.idx++
		cs.times = cs.configs[cs.idx].Times
		cs.route()
	}
}

// anyVisible reports whether any queue of the color state holds a
// consumer-visible wavelet (on any side, accepted or not).
func (cs *colorState) anyVisible() bool {
	for d := range cs.queues {
		if cs.queues[d].visLen() > 0 {
			return true
		}
	}
	return false
}

type router struct {
	csBase  int32                     // first colorState of this router in Fabric.colorStates
	nCS     int32                     // number of color states
	inList  bool                      // scheduled in a shard's active router list
	csOff   [mesh.NumColors]int16     // per-color offset+1 into the router's group (0 = color unused)
	outUsed [mesh.NumDirections]int64 // cycle+1 stamp of the last wire use
}

// proc is a processor's runtime state.
type proc struct {
	ops         []Op
	opIdx       int
	elem        int
	ctlPhase    bool // data elements sent/consumed; control phase pending
	rElem       int  // inbound progress of full-duplex ops
	rDone       bool
	sDone       bool
	actLeft     int  // remaining task-activation stall cycles
	actDone     bool // activation already paid for the current op
	acc         []float32
	accNeed     int                   // accumulator length the ops address (resolved from the program)
	inbox       [mesh.NumColors]int32 // index+1 into Fabric.inboxes (0 = no deliveries on color)
	inboxTotal  int
	latchVal    float32
	latchCtl    bool
	latchFull   bool
	clock       []int64
	skew        int64
	rng         uint64
	received    int64
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

// Result reports a completed run. The result owns its data: Acc and Clocks
// are deep copies of the fabric's final state, so a Result stays valid
// after the fabric is Reset and re-run (the pooled replay path).
type Result struct {
	// Cycles is the total cycle count until every processor finished and
	// the network drained.
	Cycles int64
	// Acc maps each programmed PE to its final accumulator contents.
	Acc map[mesh.Coord][]float32
	// Clocks maps each PE to its sampled local-clock slots.
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
// color states, inbox queues, one ring slab under every queue, one arena
// under every accumulator), which buys three things: the per-cycle hot
// loop performs no allocation, Reset can re-arm an instance for a fresh
// run without reallocating anything, and the state partitions cleanly into
// contiguous row-major bands for the sharded engine (Options.Shards).
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
	grid        []int32                     // dense width*height coord → unit index (-1 = unprogrammed)
	nbrs        [][mesh.NumDirections]int32 // precomputed per-unit neighbour units (-1 = none)
	routers     []router
	procs       []proc
	colorStates []colorState
	inboxes     []waveQueue
	ring        []waveEntry // the slab every queue's window lives in
	ringMask    uint32      // window size - 1 (a power of two ≥ QueueCap)
	accArena    []float32   // backing store of every proc's accumulator
	clockArena  []int64     // backing store of every proc's clock slots
	cycle       int64

	// lastSpec is the spec the fabric was last resolved against and peRefs
	// its programmed PEs in unit order. A Reset with the very same *Spec
	// (the pooled replay path rebinds Init in place and reuses one spec
	// object) skips validation and resolve and only re-arms.
	lastSpec *Spec
	peRefs   []*PESpec

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
	pushedQ, poppedQ []*waveQueue

	// Deferred wakes. Wakes targeting this shard's own units collect in
	// localCS/localP (deduplicated by the target's wakePending flag);
	// wakes crossing shards collect in outCS/outP bucketed by destination
	// and are applied at the cycle barrier by the destination.
	localCS, localP []int32
	outCS, outP     [][]int32

	qPushes, qPops int64 // lifetime router-queue traffic (drain detection)
	pending        int   // unfinished procs owned by this shard
	stats          Stats
	err            error
}

// New instantiates a fabric for the given program. The spec is validated
// first; routing tables and processor state are laid out densely over the
// programmed PEs, in the spec's own row-major order.
func New(s *Spec, opt Options) (*Fabric, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	n := s.Len()
	f := &Fabric{
		opt:     opt,
		width:   s.Width,
		height:  s.Height,
		coords:  make([]mesh.Coord, 0, n),
		grid:    make([]int32, len(s.pes)),
		nbrs:    make([][mesh.NumDirections]int32, n),
		routers: make([]router, n),
		procs:   make([]proc, n),
		peRefs:  make([]*PESpec, 0, n),
	}
	totalCS := 0
	for idx, pe := range s.pes {
		f.grid[idx] = -1
		if pe != nil {
			f.grid[idx] = int32(len(f.coords))
			f.coords = append(f.coords, s.coord(idx))
			f.peRefs = append(f.peRefs, pe)
			totalCS += len(pe.Configs)
		}
	}
	for i, c := range f.coords {
		for d := mesh.Direction(0); d < mesh.NumDirections; d++ {
			f.nbrs[i][d] = -1
			if d == mesh.Ramp {
				continue
			}
			if nb := c.Add(d); nb.X >= 0 && nb.X < f.width && nb.Y >= 0 && nb.Y < f.height {
				f.nbrs[i][d] = f.grid[nb.Y*f.width+nb.X]
			}
		}
	}

	// Lay out the color states flat, grouped by router, colors ascending —
	// the order the routing tables are held in.
	f.colorStates = make([]colorState, 0, totalCS)
	for i, pe := range f.peRefs {
		r := &f.routers[i]
		r.csBase = int32(len(f.colorStates))
		for k := range pe.Configs {
			color := pe.Configs[k].Color
			r.csOff[color] = int16(k) + 1
			f.colorStates = append(f.colorStates, colorState{color: color, router: int32(i)})
		}
		r.nCS = int32(len(pe.Configs))
	}
	f.inboxes = make([]waveQueue, 0, totalCS) // at most one inbox per color state
	ringSize := uint32(1)
	for int(ringSize) < opt.QueueCap {
		ringSize <<= 1
	}
	f.ringMask = ringSize - 1

	f.initShards()
	f.lastSpec = s
	f.resolve()
	f.arm()
	return f, nil
}

// resolve binds the fabric to the program in f.peRefs: everything that
// depends on the program but not on a run. It points every color state at
// its configuration list and at its peers, gives every queue that anything
// in the program can push to a window in the ring slab, and carves the
// accumulator and clock arenas. New runs it once; Reset runs it again only
// when handed a different spec.
func (f *Fabric) resolve() {
	accTotal, clockTotal := 0, 0
	for i, pe := range f.peRefs {
		r := &f.routers[i]
		for k := range pe.Configs {
			cs := &f.colorStates[int(r.csBase)+k]
			cs.configs = pe.Configs[k].Cfgs
			for d := mesh.Direction(0); d < mesh.Ramp; d++ {
				cs.peer[d] = -1
				if nb := f.nbrs[i][d]; nb >= 0 {
					cs.peer[d] = f.csIndex(nb, cs.color)
				}
			}
		}
		p := &f.procs[i]
		p.ops = pe.Ops
		p.accNeed = pe.AccNeed()
		accTotal += max(p.accNeed, len(pe.Init))
		clockTotal += pe.ClockSlots
	}

	// A queue gets a window when something can push to it: an inbox when a
	// configuration of its color delivers to the ramp, a link queue when
	// the upstream router forwards the color across that link, a ramp queue
	// when the processor sends on the color. What the consuming side
	// accepts plays no part, so a wavelet nobody will route still queues up
	// and surfaces as a deadlock.
	windows := int32(0)
	window := func() int32 {
		base := windows * int32(f.ringMask+1)
		windows++
		return base
	}
	f.inboxes = f.inboxes[:0]
	for i, pe := range f.peRefs {
		r := &f.routers[i]
		p := &f.procs[i]
		p.inbox = [mesh.NumColors]int32{}
		for k := r.csBase; k < r.csBase+r.nCS; k++ {
			cs := &f.colorStates[k]
			cs.peer[mesh.Ramp] = -1
			if forwardsTo(cs.configs, mesh.Ramp) {
				cs.peer[mesh.Ramp] = int32(len(f.inboxes))
				f.inboxes = append(f.inboxes, waveQueue{base: window()})
				p.inbox[cs.color] = int32(len(f.inboxes))
			}
			for d := mesh.Direction(0); d < mesh.Ramp; d++ {
				cs.queues[d].base = noRing
				if up := cs.peer[d]; up >= 0 && forwardsTo(f.colorStates[up].configs, d.Opposite()) {
					cs.queues[d].base = window()
				}
			}
			cs.queues[mesh.Ramp].base = noRing
		}
		for _, op := range pe.Ops {
			var out mesh.Color
			switch op.Kind {
			case OpSend, OpSendTrigger:
				out = op.Color
			case OpRecvReduceSend, OpSendRecvReduce, OpSendRecvStore:
				out = op.OutColor
			default:
				continue
			}
			if csI := f.csIndex(int32(i), out); csI >= 0 {
				if q := &f.colorStates[csI].queues[mesh.Ramp]; q.base == noRing {
					q.base = window()
				}
			}
		}
	}
	if need := int(windows) * int(f.ringMask+1); need > len(f.ring) {
		f.ring = make([]waveEntry, need)
	}

	if accTotal > len(f.accArena) {
		f.accArena = make([]float32, accTotal)
	}
	if clockTotal > len(f.clockArena) {
		f.clockArena = make([]int64, clockTotal)
	}
	acc, clock := f.accArena, f.clockArena
	for i, pe := range f.peRefs {
		p := &f.procs[i]
		n := max(p.accNeed, len(pe.Init))
		p.acc, acc = acc[:0:n], acc[n:]
		p.clock, clock = clock[:pe.ClockSlots:pe.ClockSlots], clock[pe.ClockSlots:]
	}
}

// AccNeed is the accumulator length the PE's ops address: they touch
// acc[Off..Off+N), and the buffer must span that even when the PE
// contributes no input of its own.
func (pe *PESpec) AccNeed() int {
	need := 0
	for _, op := range pe.Ops {
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
// processor wake list. It is the shared tail of New and Reset.
func (f *Fabric) arm() {
	f.cycle = 0
	for i := range f.inboxes {
		f.inboxes[i].reset()
	}
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
		cs.times = cs.configs[0].Times
		cs.route()
		cs.active = false
		cs.wakePending = false
		for d := range cs.queues {
			cs.queues[d].reset()
		}
	}

	rng := f.opt.Seed | 1
	for i, pe := range f.peRefs {
		r := &f.routers[i]
		r.outUsed = [mesh.NumDirections]int64{}
		r.inList = false

		p := &f.procs[i]
		// Init is rebound between runs; a vector longer than the one the
		// arena was carved for simply moves this accumulator off the arena.
		p.acc = append(p.acc[:0], pe.Init...)
		for len(p.acc) < p.accNeed {
			p.acc = append(p.acc, 0)
		}
		clear(p.clock)
		rng = splitmix(rng)
		p.rng = rng
		p.skew = 0
		if f.opt.ClockSkewMax > 0 {
			rng = splitmix(rng)
			p.skew = int64(rng % uint64(f.opt.ClockSkewMax))
		}
		p.opIdx, p.elem, p.rElem = 0, 0, 0
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

// Reset re-arms the fabric for a fresh run of a spec with the same
// structure (same PE set and the same routing colors per PE) as the one it
// was built from — typically a per-replay binding of the same compiled
// plan with new Init vectors. Handed the very spec object it was last
// resolved against, it assumes only Init vectors were rebound and
// reallocates nothing: queue windows, accumulators, active lists and
// routing state are all reused. Any other spec is validated and resolved
// afresh (programs, routes and queue windows may all differ) on the same
// flat arrays. Either way the deterministic RNG chain (clock skew, thermal
// no-ops) is restored exactly, so a Reset fabric reproduces a fresh New bit
// for bit.
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
			pe := s.At(c)
			if pe == nil {
				return fmt.Errorf("fabric: reset spec lacks PE %v", c)
			}
			r := &f.routers[i]
			if len(pe.Configs) != int(r.nCS) {
				return fmt.Errorf("fabric: reset PE %v has %d colors, fabric has %d", c, len(pe.Configs), r.nCS)
			}
			for k := range pe.Configs {
				if want := f.colorStates[int(r.csBase)+k].color; pe.Configs[k].Color != want {
					return fmt.Errorf("fabric: reset PE %v lacks color %d", c, want)
				}
			}
		}
		for i, c := range f.coords {
			f.peRefs[i] = s.At(c)
		}
		f.lastSpec = s
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

// csIndex returns the flat color-state index of (unit, color), or -1.
func (f *Fabric) csIndex(unit int32, c mesh.Color) int32 {
	r := &f.routers[unit]
	off := r.csOff[c]
	if off == 0 {
		return -1
	}
	return r.csBase + int32(off) - 1
}

// inboxQ returns unit i's inbox queue for a color, or nil.
func (f *Fabric) inboxQ(i int32, c mesh.Color) *waveQueue {
	idx := f.procs[i].inbox[c]
	if idx == 0 {
		return nil
	}
	return &f.inboxes[idx-1]
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
		for k := r.csBase; k < r.csBase+r.nCS; k++ {
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
	for _, q := range sh.pushedQ {
		q.syncProducer()
	}
	for _, q := range sh.poppedQ {
		q.syncConsumer()
	}
	sh.pushedQ = sh.pushedQ[:0]
	sh.poppedQ = sh.poppedQ[:0]

	f := sh.f
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
// accumulators land concatenated in res (see ColumnarResult), reusing
// res's buffers across calls, and no per-PE maps or clock samples are
// built. It exists for the batch-replay path, where result-map
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
// touch the fabric. Callers set it per run and clear it afterwards —
// pooled fabrics are reused and a stale hook would outlive its request.
func (f *Fabric) SetInterrupt(poll func() error) {
	f.interrupt = poll
}

// runToCompletion steps the engine until the program finishes and the
// network drains; result assembly is the caller's choice (maps via
// result, flat via resultColumnar).
func (f *Fabric) runToCompletion() error {
	defer f.stopWorkers()
	for {
		if f.interrupt != nil && f.cycle&(interruptStride-1) == 0 {
			if err := f.interrupt(); err != nil {
				return fmt.Errorf("fabric: interrupted at cycle %d: %w", f.cycle, err)
			}
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

// result builds the Result, deep-copying accumulator and clock state out
// of the fabric so the caller's data survives a Reset of this instance.
func (f *Fabric) result() (*Result, error) {
	stats, err := f.finalStats()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Cycles: f.cycle,
		Acc:    make(map[mesh.Coord][]float32, len(f.coords)),
		Clocks: make(map[mesh.Coord][]int64, len(f.coords)),
		Stats:  stats,
	}
	totalAcc, totalClk := 0, 0
	for i := range f.procs {
		totalAcc += len(f.procs[i].acc)
		totalClk += len(f.procs[i].clock)
	}
	accBuf := make([]float32, 0, totalAcc)
	clkBuf := make([]int64, 0, totalClk)
	for i, c := range f.coords {
		p := &f.procs[i]
		start := len(accBuf)
		accBuf = append(accBuf, p.acc...)
		res.Acc[c] = accBuf[start:len(accBuf):len(accBuf)]
		if len(p.clock) > 0 {
			start := len(clkBuf)
			clkBuf = append(clkBuf, p.clock...)
			res.Clocks[c] = clkBuf[start:len(clkBuf):len(clkBuf)]
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
	q := &cs.queues[accept]
	e, ok := f.peek(q)
	if !ok {
		return false // nothing visible on the accepted side; a push or config advance will wake us
	}
	if e.readyAt > f.cycle {
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
		if r.outUsed[d] == stamp {
			return true // wire contention: retry next cycle
		}
		t := cs.peer[d]
		if t < 0 {
			return false // off-grid or unroutable color downstream: surfaces as deadlock
		}
		if d == mesh.Ramp {
			if f.inboxes[t].prodLen() >= qcap {
				return false // sleep until the processor drains its inbox
			}
		} else if !f.colorStates[t].queues[d.Opposite()].hasSpace(qcap) {
			return false // sleep until downstream pops
		}
	}
	f.pop(q)
	sh.poppedQ = append(sh.poppedQ, q)
	sh.qPops++
	if f.opt.Tracer != nil {
		f.opt.Tracer.record(TraceEvent{Cycle: f.cycle, PE: f.coords[i], Kind: EvRoute, Color: cs.color, Forward: forward, Ctl: e.w.Ctl})
	}
	// Popping frees space: wake whoever fills this queue.
	if accept == mesh.Ramp {
		sh.wakeProc(i)
	} else {
		sh.wakeCS(cs.peer[accept])
	}
	for set := forward; set != 0; set &= set - 1 {
		d := mesh.Direction(bits.TrailingZeros8(uint8(set)))
		r.outUsed[d] = stamp
		t := cs.peer[d]
		if d == mesh.Ramp {
			iq := &f.inboxes[t]
			f.push(iq, waveEntry{w: e.w, readyAt: f.cycle + int64(f.opt.TR)})
			sh.pushedQ = append(sh.pushedQ, iq)
			f.procs[i].inboxTotal++
			sh.stats.RampMoves++
			sh.wakeProc(i)
			if f.opt.Tracer != nil {
				f.opt.Tracer.record(TraceEvent{Cycle: f.cycle, PE: f.coords[i], Kind: EvDeliver, Color: cs.color, Ctl: e.w.Ctl})
			}
			continue
		}
		nq := &f.colorStates[t].queues[d.Opposite()]
		f.push(nq, waveEntry{w: e.w, readyAt: stamp})
		sh.pushedQ = append(sh.pushedQ, nq)
		sh.qPushes++
		sh.stats.Hops++
		if l := nq.prodLen(); l > sh.stats.MaxQueueLen {
			sh.stats.MaxQueueLen = l
		}
		sh.wakeCS(t)
	}
	if e.w.Ctl {
		cs.advance()
		if f.opt.Tracer != nil {
			f.opt.Tracer.record(TraceEvent{Cycle: f.cycle, PE: f.coords[i], Kind: EvAdvance, Color: cs.color, Ctl: true})
		}
	}
	if q.visLen() > 0 { // streaming fast path: more work behind the head
		return true
	}
	return cs.anyVisible()
}

// pushRamp injects a wavelet from processor i into its router; the wavelet
// becomes routable T_R cycles after the send instruction issues.
func (sh *shardState) pushRamp(i int32, w Wavelet) bool {
	f := sh.f
	csI := f.csIndex(i, w.Color)
	if csI < 0 {
		return false
	}
	q := &f.colorStates[csI].queues[mesh.Ramp]
	if !f.push(q, waveEntry{w: w, readyAt: f.cycle + int64(f.opt.TR)}) {
		return false
	}
	sh.pushedQ = append(sh.pushedQ, q)
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
	q := f.inboxQ(i, c)
	if q == nil || q.visLen() == 0 {
		return Wavelet{}, popEmpty
	}
	e, _ := f.peek(q)
	if e.readyAt > f.cycle {
		return Wavelet{}, popNotReady
	}
	f.pop(q)
	sh.poppedQ = append(sh.poppedQ, q)
	f.procs[i].inboxTotal--
	// Draining the inbox may unblock the router's ramp delivery.
	sh.wakeCS(f.csIndex(i, c))
	if f.opt.Tracer != nil {
		f.opt.Tracer.record(TraceEvent{Cycle: f.cycle, PE: f.coords[i], Kind: EvConsume, Color: c, Ctl: e.w.Ctl})
	}
	return e.w, popOK
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
	for p.opIdx < len(p.ops) && p.ops[p.opIdx].Kind == OpSampleClock {
		op := p.ops[p.opIdx]
		p.clock[op.Slot] = f.cycle + p.skew
		p.opIdx++
	}
	if p.opIdx >= len(p.ops) {
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
	op := &p.ops[p.opIdx]
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
	p.opIdx++
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
	q := f.inboxQ(i, color)
	if q == nil || q.visLen() == 0 {
		return false, true // nothing arrived yet: sleep until a push
	}
	if e, _ := f.peek(q); e.readyAt > f.cycle {
		return true, true // in ramp transit: retry next cycle
	}
	if p.actLeft == 0 {
		p.actLeft = f.opt.TaskActivation
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
			if p.opIdx < len(p.ops) {
				op := p.ops[p.opIdx]
				fmt.Fprintf(&b, "PE %v blocked on op %d %v color=%d elem=%d/%d inbox=%d; ",
					f.coords[i], p.opIdx, op.Kind, op.Color, p.elem, op.N, p.inboxTotal)
			} else {
				fmt.Fprintf(&b, "PE %v drained ops, inbox=%d; ", f.coords[i], p.inboxTotal)
			}
		}
		blocked++
	}
	fmt.Fprintf(&b, "%d blocked PEs, %d queued wavelets", blocked, queued)
	return b.String()
}

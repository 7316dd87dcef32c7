package fabric

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/mesh"
)

// RouterConfig is one entry of a router's per-color configuration list.
// A router in this configuration accepts wavelets of the color from exactly
// one direction and duplicates them (hardware multicast, at no cost) to
// every direction in Forward. Accepting from a single direction per color
// is how the paper's implementation avoids the undefined behaviour of two
// same-color wavelets meeting at a router (§8.2); the type makes the
// discipline structural.
//
// Times is the number of control wavelets this configuration absorbs before
// the router advances to the next configuration in the list; 0 means the
// configuration is final and absorbs controls forever. Hardware stores up
// to four distinct configurations per color and cycles through them; the
// Times counter models the equivalent "receive k vectors in this
// configuration" idiom without enumerating k identical entries.
type RouterConfig struct {
	Accept  mesh.Direction
	Forward mesh.DirSet
	Times   int
}

// ReduceOp selects the associative operation applied by receive-reduce
// program ops. The paper considers sums; any associative operation works
// (§2.1), so Max and Min are provided as well.
type ReduceOp uint8

const (
	// OpSum accumulates by addition.
	OpSum ReduceOp = iota
	// OpMax accumulates by maximum.
	OpMax
	// OpMin accumulates by minimum.
	OpMin
)

// Apply combines an accumulator element with an incoming value.
func (o ReduceOp) Apply(acc, v float32) float32 {
	switch o {
	case OpMax:
		if v > acc {
			return v
		}
		return acc
	case OpMin:
		if v < acc {
			return v
		}
		return acc
	default:
		return acc + v
	}
}

// String names the reduction operator.
func (o ReduceOp) String() string {
	switch o {
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return "sum"
	}
}

// ParseReduceOp is the inverse of ReduceOp.String, ignoring case: the one
// place the operator names are read back, for the CLI, the wire, workload
// files and plan keys alike.
func ParseReduceOp(name string) (ReduceOp, error) {
	for op := OpSum; op <= OpMin; op++ {
		if strings.EqualFold(name, op.String()) {
			return op, nil
		}
	}
	return OpSum, fmt.Errorf("unknown reduction op %q (sum, max, min)", name)
}

// OpKind enumerates the processor program operations.
type OpKind uint8

const (
	// OpSend streams N accumulator elements out on Color followed by one
	// control wavelet (one element per cycle, ramp latency applies).
	OpSend OpKind = iota
	// OpRecvReduce consumes N data wavelets on Color, combining element j
	// into the accumulator at j, then consumes the trailing control
	// wavelet. One element per cycle.
	OpRecvReduce
	// OpRecvReduceSend is the pipelined fused op that makes Chain Reduce
	// cost B + (2T_R+2)(P-1): element j is received on Color, combined
	// with the accumulator, and forwarded on OutColor one cycle later
	// while element j+1 is already in flight. The trailing control is
	// consumed inbound and re-emitted outbound.
	OpRecvReduceSend
	// OpRecvStore consumes N data wavelets on Color, overwriting the
	// accumulator (broadcast receive), then the trailing control.
	OpRecvStore
	// OpRecvTrigger consumes a single data wavelet on Color (used as the
	// start trigger of the §8.3 measurement methodology).
	OpRecvTrigger
	// OpBusyWrite burns N cycles writing to scratch memory; the α·(M+N−i−j)
	// staggering writes of the clock calibration are expressed with it.
	OpBusyWrite
	// OpSampleClock records the PE's local clock into result slot Slot.
	// Sampling a register is free: the op consumes no cycle.
	OpSampleClock
	// OpSendTrigger emits a single data wavelet on Color (the root side of
	// OpRecvTrigger). It costs one cycle.
	OpSendTrigger
	// OpSendRecvReduce is the full-duplex round primitive of ring-style
	// algorithms: it streams acc[Off:Off+N] out on OutColor while
	// simultaneously receiving N2 wavelets on Color, combining them into
	// acc[Off2:Off2+N2] (the ramp is bidirectional: one wavelet out and
	// one in per cycle). The op completes when both directions have
	// passed their trailing controls. Color and OutColor may be one color:
	// a color's outgoing ramp queue and its inbox are separate queues.
	OpSendRecvReduce
	// OpSendRecvStore is OpSendRecvReduce with the incoming elements
	// overwriting the accumulator (the allgather half of a ring).
	OpSendRecvStore
)

// Op is one processor program step. Processors execute their op list in
// order; receive ops block on the per-color inbox, send ops block on ramp
// backpressure.
//
// Send-like kinds read acc[Off : Off+N]; receive-like kinds write
// acc[Off : Off+N]. The full-duplex kinds send acc[Off : Off+N] and
// receive into acc[Off2 : Off2+N2].
type Op struct {
	Kind     OpKind
	Color    mesh.Color
	OutColor mesh.Color
	N        int
	Off      int
	N2       int
	Off2     int
	Slot     int
	Reduce   ReduceOp
}

// ColorConfig is one row of a PE's routing table: the configuration list
// its router cycles through for one color.
type ColorConfig struct {
	Color mesh.Color
	Cfgs  []RouterConfig
}

// Program is what a PE runs: its processor program, its routing table and
// its clock slots — a PE without where it sits or its initial vector. PEs
// that play one role in a collective run one program, and a Spec holds each
// distinct program once, shared by every PE that runs it: a Program is
// read-only. Writes go through the Spec (Append, AddConfig, SetOps,
// SetClockSlots), which hands the written PE another program and never
// touches one a PE runs.
type Program struct {
	// Ops is the processor program.
	Ops []Op
	// Configs is the routing table: one configuration list for each color
	// the PE's router participates in, in strictly ascending color order
	// (AddConfig keeps it so; Validate rejects anything else). Colors
	// without an entry drop into a "no route" state: wavelets of such
	// colors arriving at the router stall forever, which the deadlock
	// detector reports.
	Configs []ColorConfig
	// ClockSlots is the number of local-clock sample slots the program
	// uses (indexed by Op.Slot).
	ClockSlots int

	id int32 // its index in the table that holds it
	// links are the link directions any configuration forwards to, what
	// Validate checks each PE's neighbours against.
	links      mesh.DirSet
	hOps, hCfg uint64 // the content hash, in two parts that writes update
	next       []edge // the writes already seen from it, while it is built on
}

// PESpec is the binding of one PE of a hand-built spec: the initial vector
// fabric.New starts it from. A compiled plan's spec binds nothing (runs bind
// their inputs with NewBound), so a spec holds its bindings beside the
// placement, in a table PE makes on first use.
type PESpec struct {
	// Init is the PE's initial accumulator (its contribution to the
	// collective). It may be nil for pure pass-through PEs.
	Init []float32
}

// ConfigsFor returns the program's configuration list for a color, nil when
// its router does not participate in the color.
func (p *Program) ConfigsFor(c mesh.Color) []RouterConfig {
	for i := range p.Configs {
		if p.Configs[i].Color >= c {
			if p.Configs[i].Color == c {
				return p.Configs[i].Cfgs
			}
			break
		}
	}
	return nil
}

// Spec is a complete fabric program over a rectangular region of PEs — one
// dense image, the shape the hardware holds it in: a table of the distinct
// PE programs, and a placement that names for every cell of the region the
// program its PE runs, four bytes a PE. An unprogrammed cell is an idle
// pass-nothing PE; routing a wavelet towards one is a compile bug that
// Validate reports. Every layer that reads a program (codec, Validate, New,
// the tape) walks the placement in order, so row-major is also the order of
// the encoded frame and of the fabric's units.
//
// A Spec is built by one goroutine. Once built — a Validate, an encode or a
// Programs call has seen it — it may be read by many.
type Spec struct {
	Width, Height int

	// place is the placement, row-major, len Width*Height: 0 for an
	// unprogrammed cell, k+1 for the cell whose PE runs tab.progs[k] — the
	// index a frame's runs carry.
	place []int32
	n     int // programmed PEs
	tab   *table
	// binds are the PEs' initial vectors by row-major index, nil until PE
	// is first called: only hand-built specs bind.
	binds []PESpec

	// coords lists the programmed PEs in row-major order, built on first
	// demand (Coords).
	coordsOnce sync.Once
	coords     []mesh.Coord
}

// NewSpec allocates an empty program for a Width×Height PE region.
func NewSpec(width, height int) *Spec {
	return &Spec{Width: width, Height: height, place: make([]int32, width*height), tab: &table{}}
}

// cell is the row-major index of c, which must lie in the region.
func (s *Spec) cell(c mesh.Coord) int {
	if c.X < 0 || c.X >= s.Width || c.Y < 0 || c.Y >= s.Height {
		panic(fmt.Sprintf("fabric: PE %v outside %dx%d region", c, s.Width, s.Height))
	}
	return c.Y*s.Width + c.X
}

// Program returns the program of the PE at c, programming it with the empty
// program on first use: what a builder reads before it writes, never to be
// written through.
func (s *Spec) Program(c mesh.Coord) *Program {
	return s.program(s.cell(c))
}

// program is Program by row-major index.
func (s *Spec) program(i int) *Program {
	if k := s.place[i]; k > 0 {
		return s.tab.progs[k-1]
	}
	p := s.tab.empty()
	s.place[i] = p.id + 1
	s.n++
	s.tab.stale = true // the program may come first in row-major order now
	s.coordsOnce, s.coords = sync.Once{}, nil
	return p
}

// at is the program at row-major index i, nil when the cell is unprogrammed.
func (s *Spec) at(i int) *Program {
	if k := s.place[i]; k > 0 {
		return s.tab.progs[k-1]
	}
	return nil
}

// PE returns the binding of the PE at c, programming it with the empty
// program on first use. Its Init is the caller's to set; fabric.New starts
// the PE from it. It is for hand-built specs: a compiled plan binds its
// runs' inputs with NewBound, and builders program PEs through Program.
func (s *Spec) PE(c mesh.Coord) *PESpec {
	i := s.cell(c)
	s.program(i)
	if s.binds == nil {
		s.binds = make([]PESpec, len(s.place))
	}
	return &s.binds[i]
}

// At returns the program of the PE at c, or nil when c is unprogrammed or
// outside the region.
func (s *Spec) At(c mesh.Coord) *Program {
	if c.X < 0 || c.X >= s.Width || c.Y < 0 || c.Y >= s.Height {
		return nil
	}
	return s.at(c.Y*s.Width + c.X)
}

// Len returns the number of programmed PEs.
func (s *Spec) Len() int { return s.n }

// Each calls fn for every programmed PE in row-major order, with the
// program it runs.
func (s *Spec) Each(fn func(c mesh.Coord, p *Program)) {
	for i, k := range s.place {
		if k > 0 {
			fn(s.coord(i), s.tab.progs[k-1])
		}
	}
}

// Coords lists the programmed PEs in row-major order. The spec builds the
// list once, on first demand, and every caller shares it: it is read-only.
func (s *Spec) Coords() []mesh.Coord {
	s.coordsOnce.Do(func() {
		s.coords = make([]mesh.Coord, 0, s.n)
		s.Each(func(c mesh.Coord, _ *Program) { s.coords = append(s.coords, c) })
	})
	return s.coords
}

// initOf is the vector bound to row-major index i, nil when none is.
func (s *Spec) initOf(i int) []float32 {
	if s.binds == nil {
		return nil
	}
	return s.binds[i].Init
}

// coord is the coordinate of table index i.
func (s *Spec) coord(i int) mesh.Coord { return mesh.Coord{X: i % s.Width, Y: i / s.Width} }

// Append appends ops to the program of the PE at c.
func (s *Spec) Append(c mesh.Coord, ops ...Op) {
	s.write(c, &edit{kind: editAppend, ops: ops})
}

// SetOps replaces the processor program of the PE at c with ops.
func (s *Spec) SetOps(c mesh.Coord, ops []Op) {
	s.write(c, &edit{kind: editOps, ops: ops})
}

// AddConfig appends configurations to the list of the PE at c for a color.
func (s *Spec) AddConfig(c mesh.Coord, color mesh.Color, cfgs ...RouterConfig) {
	s.write(c, &edit{kind: editConfig, color: color, cfgs: cfgs})
}

// SetClockSlots sets the number of clock slots of the PE's program.
func (s *Spec) SetClockSlots(c mesh.Coord, n int) {
	s.write(c, &edit{kind: editSlots, n: n})
}

// Stamp programs every PE of src into s, which must span the same region:
// each PE of src runs its program in s too, its binding aside. s takes src's
// programs into its own table without copying their ops or routing
// tables, which no write reaches, so s's programs may be rewritten freely.
func (s *Spec) Stamp(src *Spec) error {
	if s.Width != src.Width || s.Height != src.Height {
		return fmt.Errorf("fabric: stamp a %dx%d spec into a %dx%d one", src.Width, src.Height, s.Width, s.Height)
	}
	mine := make([]int32, len(src.tab.progs)) // src's program k as s places it, 0 until met
	for i, k := range src.place {
		if k == 0 {
			continue
		}
		if mine[k-1] == 0 {
			mine[k-1] = s.tab.adopt(src.tab.progs[k-1]).id + 1
		}
		if s.place[i] == 0 {
			s.n++
		}
		s.place[i] = mine[k-1]
	}
	s.tab.stale = true
	s.coordsOnce, s.coords = sync.Once{}, nil
	return nil
}

// Validate checks structural properties of the program: routing tables are
// in strictly ascending color order, configurations never forward off-grid
// or to an unprogrammed PE, every non-final configuration has a positive
// Times, and op element counts are sane. Each distinct program is checked
// once, at the first PE that runs it; each PE's links are checked on their
// own.
func (s *Spec) Validate() error {
	if len(s.place) != s.Width*s.Height {
		return fmt.Errorf("fabric: %dx%d spec holds a %d-cell placement", s.Width, s.Height, len(s.place))
	}
	s.Programs()
	// Placement offset of the neighbour in each link direction.
	step := [mesh.NumDirections]int{mesh.East: 1, mesh.West: -1, mesh.North: -s.Width, mesh.South: s.Width}
	checked := int32(0) // programs are numbered in order of first use
	for idx, k := range s.place {
		if k == 0 {
			continue
		}
		p, c := s.tab.progs[k-1], s.coord(idx)
		if p.id == checked {
			if err := p.check(c); err != nil {
				return err
			}
			checked++
		}
		// Link directions that stay on the grid from c.
		onGrid := [mesh.NumDirections]bool{
			mesh.East: c.X+1 < s.Width, mesh.West: c.X > 0,
			mesh.North: c.Y > 0, mesh.South: c.Y+1 < s.Height,
		}
		for d := mesh.Direction(0); d < mesh.Ramp; d++ {
			if p.links.Has(d) && (!onGrid[d] || s.place[idx+step[d]] == 0) {
				return p.linkError(c, d, onGrid[d])
			}
		}
	}
	return nil
}

// check validates the program itself, reporting it at c.
func (p *Program) check(c mesh.Coord) error {
	for k := range p.Configs {
		color, cfgs := p.Configs[k].Color, p.Configs[k].Cfgs
		if int(color) >= mesh.NumColors {
			return fmt.Errorf("fabric: PE %v uses color %d ≥ %d", c, color, mesh.NumColors)
		}
		if k > 0 && color <= p.Configs[k-1].Color {
			return fmt.Errorf("fabric: PE %v lists color %d after color %d; routing tables are color-ascending", c, color, p.Configs[k-1].Color)
		}
		if len(cfgs) == 0 {
			return fmt.Errorf("fabric: PE %v has empty config list for color %d", c, color)
		}
		for i, cfg := range cfgs {
			if cfg.Accept >= mesh.NumDirections {
				return fmt.Errorf("fabric: PE %v color %d config %d accepts from %v", c, color, i, cfg.Accept)
			}
			if cfg.Forward>>mesh.NumDirections != 0 {
				return fmt.Errorf("fabric: PE %v color %d config %d forwards to %v", c, color, i, cfg.Forward)
			}
			if cfg.Times < 0 {
				return fmt.Errorf("fabric: PE %v color %d config %d has negative Times", c, color, i)
			}
			if i < len(cfgs)-1 && cfg.Times == 0 {
				return fmt.Errorf("fabric: PE %v color %d config %d is non-final but absorbs forever", c, color, i)
			}
		}
	}
	if p.ClockSlots < 0 {
		return fmt.Errorf("fabric: PE %v has %d clock slots", c, p.ClockSlots)
	}
	for i, op := range p.Ops {
		if op.Off < 0 || op.Off2 < 0 {
			return fmt.Errorf("fabric: PE %v op %d (%v) has negative offset", c, i, op.Kind)
		}
		if int(op.Color) >= mesh.NumColors || int(op.OutColor) >= mesh.NumColors {
			return fmt.Errorf("fabric: PE %v op %d (%v) uses color %d/%d ≥ %d", c, i, op.Kind, op.Color, op.OutColor, mesh.NumColors)
		}
		switch op.Kind {
		case OpSend, OpRecvReduce, OpRecvReduceSend, OpRecvStore:
			if op.N <= 0 {
				return fmt.Errorf("fabric: PE %v op %d (%v) has N=%d", c, i, op.Kind, op.N)
			}
		case OpSendRecvReduce, OpSendRecvStore:
			if op.N <= 0 || op.N2 <= 0 {
				return fmt.Errorf("fabric: PE %v op %d (%v) has N=%d N2=%d", c, i, op.Kind, op.N, op.N2)
			}
		case OpBusyWrite:
			if op.N < 0 {
				return fmt.Errorf("fabric: PE %v op %d busy-write has N=%d", c, i, op.N)
			}
		case OpSampleClock:
			if op.Slot < 0 || op.Slot >= p.ClockSlots {
				return fmt.Errorf("fabric: PE %v op %d samples slot %d outside [0,%d)", c, i, op.Slot, p.ClockSlots)
			}
		}
	}
	return nil
}

// linkError names the first configuration of the program at c that
// forwards towards d, which leaves the grid (or, on the grid, reaches an
// unprogrammed PE).
func (p *Program) linkError(c mesh.Coord, d mesh.Direction, onGrid bool) error {
	for _, row := range p.Configs {
		for i, cfg := range row.Cfgs {
			if !cfg.Forward.Has(d) {
				continue
			}
			if !onGrid {
				return fmt.Errorf("fabric: PE %v color %d config %d forwards %v off-grid", c, row.Color, i, d)
			}
			return fmt.Errorf("fabric: PE %v color %d config %d forwards %v to unprogrammed PE %v", c, row.Color, i, d, c.Add(d))
		}
	}
	return fmt.Errorf("fabric: PE %v forwards %v", c, d)
}

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "send"
	case OpRecvReduce:
		return "recv-reduce"
	case OpRecvReduceSend:
		return "recv-reduce-send"
	case OpRecvStore:
		return "recv-store"
	case OpRecvTrigger:
		return "recv-trigger"
	case OpBusyWrite:
		return "busy-write"
	case OpSampleClock:
		return "sample-clock"
	case OpSendTrigger:
		return "send-trigger"
	case OpSendRecvReduce:
		return "send-recv-reduce"
	case OpSendRecvStore:
		return "send-recv-store"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

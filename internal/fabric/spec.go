package fabric

import (
	"fmt"
	"strings"

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
	// passed their trailing controls.
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

// PESpec describes one processing element of a program: its initial local
// vector, its processor program, and its router's per-color configuration
// lists.
type PESpec struct {
	// Init is the PE's initial accumulator (its contribution to the
	// collective). It may be nil for pure pass-through PEs.
	Init []float32
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
}

// AddConfig appends a configuration to the PE's list for a color.
func (p *PESpec) AddConfig(c mesh.Color, cfg RouterConfig) {
	i := 0
	for i < len(p.Configs) && p.Configs[i].Color < c {
		i++
	}
	if i == len(p.Configs) || p.Configs[i].Color != c {
		p.Configs = append(p.Configs, ColorConfig{})
		copy(p.Configs[i+1:], p.Configs[i:])
		p.Configs[i] = ColorConfig{Color: c}
	}
	p.Configs[i].Cfgs = append(p.Configs[i].Cfgs, cfg)
}

// ConfigsFor returns the PE's configuration list for a color, nil when its
// router does not participate in the color.
func (p *PESpec) ConfigsFor(c mesh.Color) []RouterConfig {
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

// Spec is a complete fabric program: a rectangular region of PEs, each
// with a program and routing tables — one dense image, the shape the
// hardware holds it in. The PEs sit in a row-major table with a nil entry
// for every unprogrammed PE; those are idle pass-nothing PEs, and routing
// a wavelet towards one is a compile bug that Validate reports. Every
// layer that reads a program (codec, Validate, plan binding, New) walks the
// table in order, so row-major is also the order of the encoded frame and
// of the fabric's units.
type Spec struct {
	Width, Height int

	pes []*PESpec // row-major, len Width*Height; nil = unprogrammed
	n   int       // programmed PEs
	// free is the backing store PE carves fresh entries from, a row's worth
	// at a time (the decoder sizes it to the frame's PE count instead), so
	// building a program costs one allocation per row rather than per PE.
	free []PESpec
}

// NewSpec allocates an empty program for a Width×Height PE region.
func NewSpec(width, height int) *Spec {
	return &Spec{Width: width, Height: height, pes: make([]*PESpec, width*height)}
}

// PE returns the spec for the PE at c, allocating it on first use.
func (s *Spec) PE(c mesh.Coord) *PESpec {
	if c.X < 0 || c.X >= s.Width || c.Y < 0 || c.Y >= s.Height {
		panic(fmt.Sprintf("fabric: PE %v outside %dx%d region", c, s.Width, s.Height))
	}
	i := c.Y*s.Width + c.X
	if s.pes[i] == nil {
		s.pes[i] = s.alloc()
	}
	return s.pes[i]
}

// alloc carves one zeroed PESpec out of the backing store.
func (s *Spec) alloc() *PESpec {
	if len(s.free) == 0 {
		s.free = make([]PESpec, s.Width)
	}
	pe := &s.free[0]
	s.free = s.free[1:]
	s.n++
	return pe
}

// At returns the spec of the PE at c, or nil when c is unprogrammed or
// outside the region.
func (s *Spec) At(c mesh.Coord) *PESpec {
	if c.X < 0 || c.X >= s.Width || c.Y < 0 || c.Y >= s.Height {
		return nil
	}
	return s.pes[c.Y*s.Width+c.X]
}

// Len returns the number of programmed PEs.
func (s *Spec) Len() int { return s.n }

// Each calls fn for every programmed PE in row-major order.
func (s *Spec) Each(fn func(c mesh.Coord, pe *PESpec)) {
	for i, pe := range s.pes {
		if pe != nil {
			fn(s.coord(i), pe)
		}
	}
}

// coord is the coordinate of table index i.
func (s *Spec) coord(i int) mesh.Coord { return mesh.Coord{X: i % s.Width, Y: i / s.Width} }

// Validate checks structural properties of the program: routing tables are
// in strictly ascending color order, configurations never forward off-grid
// or to an unprogrammed PE, every non-final configuration has a positive
// Times, and op element counts are sane.
func (s *Spec) Validate() error {
	if len(s.pes) != s.Width*s.Height {
		return fmt.Errorf("fabric: %dx%d spec holds a %d-entry PE table", s.Width, s.Height, len(s.pes))
	}
	// Table offset of the neighbour in each link direction.
	step := [mesh.NumDirections]int{mesh.East: 1, mesh.West: -1, mesh.North: -s.Width, mesh.South: s.Width}
	for idx, pe := range s.pes {
		if pe == nil {
			continue
		}
		c := s.coord(idx)
		// Link directions that stay on the grid from c.
		onGrid := [mesh.NumDirections]bool{
			mesh.East: c.X+1 < s.Width, mesh.West: c.X > 0,
			mesh.North: c.Y > 0, mesh.South: c.Y+1 < s.Height,
		}
		for k := range pe.Configs {
			color, cfgs := pe.Configs[k].Color, pe.Configs[k].Cfgs
			if int(color) >= mesh.NumColors {
				return fmt.Errorf("fabric: PE %v uses color %d ≥ %d", c, color, mesh.NumColors)
			}
			if k > 0 && color <= pe.Configs[k-1].Color {
				return fmt.Errorf("fabric: PE %v lists color %d after color %d; routing tables are color-ascending", c, color, pe.Configs[k-1].Color)
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
				for d := mesh.Direction(0); d < mesh.Ramp; d++ {
					if !cfg.Forward.Has(d) {
						continue
					}
					if !onGrid[d] {
						return fmt.Errorf("fabric: PE %v color %d config %d forwards %v off-grid", c, color, i, d)
					}
					if s.pes[idx+step[d]] == nil {
						return fmt.Errorf("fabric: PE %v color %d config %d forwards %v to unprogrammed PE %v", c, color, i, d, c.Add(d))
					}
				}
				if cfg.Times < 0 {
					return fmt.Errorf("fabric: PE %v color %d config %d has negative Times", c, color, i)
				}
				if i < len(cfgs)-1 && cfg.Times == 0 {
					return fmt.Errorf("fabric: PE %v color %d config %d is non-final but absorbs forever", c, color, i)
				}
			}
		}
		if pe.ClockSlots < 0 {
			return fmt.Errorf("fabric: PE %v has %d clock slots", c, pe.ClockSlots)
		}
		for i, op := range pe.Ops {
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
				if op.Color == op.OutColor {
					return fmt.Errorf("fabric: PE %v op %d (%v) sends and receives on color %d", c, i, op.Kind, op.Color)
				}
			case OpBusyWrite:
				if op.N < 0 {
					return fmt.Errorf("fabric: PE %v op %d busy-write has N=%d", c, i, op.N)
				}
			case OpSampleClock:
				if op.Slot < 0 || op.Slot >= pe.ClockSlots {
					return fmt.Errorf("fabric: PE %v op %d samples slot %d outside [0,%d)", c, i, op.Slot, pe.ClockSlots)
				}
			}
		}
	}
	return nil
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

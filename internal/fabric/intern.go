package fabric

import (
	"slices"

	"repro/internal/mesh"
)

// The program table of a Spec and its interner. A write to a PE's program
// (Append, SetOps, AddConfig, SetClockSlots) moves the PE to the program
// its current one becomes under the write, which the table finds or makes:
//
//   - every program remembers the writes already made from it and where
//     they led, so the PEs that play one role walk the same few programs,
//     and a write seen before costs a comparison of what it writes, not a
//     copy of the program and a lookup (without the memo a 512×512 reduce
//     compiles in about 90 ms, not 35, on a 2-core x86 host);
//   - a write not seen before is looked up by content, so equal programs
//     always share one entry whichever writes made them;
//   - a program not found is made in the table's arenas, sharing what it
//     keeps of its predecessor's ops and routing rows. Arenas hand out
//     fresh elements only, and every slice a program holds is capped at
//     its length, so no write lands in storage a program already holds.
//
// The programs a build passes through on the way to the PEs' last ones stay
// in the table until something reads it; Programs then drops them and
// numbers the rest in row-major order of first use, the frame's order.

// maxEdges bounds the writes a program remembers, so that a program many
// PEs leave in different ways (each with its own offsets, say) is not
// scanned at length: the rest are found by content. Bounds from 2 to 64
// compile the benchmark's shapes alike; 1 is slower.
const maxEdges = 8

type table struct {
	progs []*Program // by id
	// stale is set by every write: programs no PE runs may linger, and the
	// rest may be out of first-use order.
	stale bool
	// slots index progs by content hash (open addressing, id+1; 0 is
	// free), nil until a write or a lookup needs them.
	slots []int32
	blank *Program // the empty program once made

	pool arena[Program]
	ops  arena[Op]
	rows arena[ColorConfig]
	cfgs arena[RouterConfig]

	// scratch is the program a write describes, built in the buffers below
	// before the table is searched for it.
	scratch Program
	opsBuf  []Op
	rowsBuf []ColorConfig
	cfgsBuf []RouterConfig
}

type editKind uint8

const (
	editAppend editKind = iota
	editOps
	editConfig
	editSlots
)

// edit is one write to a PE's program.
type edit struct {
	kind  editKind
	color mesh.Color
	ops   []Op
	cfgs  []RouterConfig
	n     int
}

// edge is a write seen from a program: its kind, the color of a config
// write, the length of an ops or config write, and the program it led to,
// whose content says the rest.
type edge struct {
	kind  editKind
	color mesh.Color
	n     int32
	to    *Program
}

// leadsTo reports whether the write e, from the program the edge leaves,
// is the one the edge remembers.
func (ed *edge) leadsTo(e *edit) bool {
	if ed.kind != e.kind {
		return false
	}
	to := ed.to
	switch e.kind {
	case editAppend:
		return int(ed.n) == len(e.ops) && slices.Equal(to.Ops[len(to.Ops)-len(e.ops):], e.ops)
	case editOps:
		return slices.Equal(to.Ops, e.ops)
	case editConfig:
		if ed.color != e.color || int(ed.n) != len(e.cfgs) {
			return false
		}
		cfgs := to.ConfigsFor(e.color)
		return slices.Equal(cfgs[len(cfgs)-len(e.cfgs):], e.cfgs)
	default:
		return to.ClockSlots == e.n
	}
}

// write applies e to the program of the PE at c.
func (s *Spec) write(c mesh.Coord, e *edit) {
	i := s.cell(c)
	p := s.program(i)
	for k := range p.next {
		if p.next[k].leadsTo(e) {
			s.place[i] = p.next[k].to.id + 1
			return
		}
	}
	q := s.tab.derive(p, e)
	if len(p.next) < maxEdges {
		p.next = append(p.next, edge{kind: e.kind, color: e.color, n: int32(len(e.ops) + len(e.cfgs)), to: q})
	}
	s.place[i] = q.id + 1
	s.tab.stale = true
}

// empty is the program with no ops, no routes and no clock slots.
func (t *table) empty() *Program {
	if t.blank == nil {
		t.scratch = Program{}
		t.blank = t.intern(false, -1)
	}
	return t.blank
}

// derive returns the program p becomes under e.
func (t *table) derive(p *Program, e *edit) *Program {
	sc := &t.scratch
	*sc = Program{Ops: p.Ops, Configs: p.Configs, ClockSlots: p.ClockSlots, links: p.links, hOps: p.hOps, hCfg: p.hCfg}
	newOps, editedRow := false, -1
	switch e.kind {
	case editAppend:
		t.opsBuf = append(append(t.opsBuf[:0], p.Ops...), e.ops...)
		sc.Ops, newOps = t.opsBuf, true
		sc.hOps = hashOps(p.hOps, e.ops)
	case editOps:
		t.opsBuf = append(t.opsBuf[:0], e.ops...)
		sc.Ops, newOps = t.opsBuf, true
		sc.hOps = hashOps(0, e.ops)
	case editConfig:
		k := 0
		for k < len(p.Configs) && p.Configs[k].Color < e.color {
			k++
		}
		t.rowsBuf = append(t.rowsBuf[:0], p.Configs...)
		var old []RouterConfig
		if k < len(p.Configs) && p.Configs[k].Color == e.color {
			old = p.Configs[k].Cfgs
		} else {
			t.rowsBuf = slices.Insert(t.rowsBuf, k, ColorConfig{Color: e.color})
		}
		t.cfgsBuf = append(append(t.cfgsBuf[:0], old...), e.cfgs...)
		t.rowsBuf[k].Cfgs = t.cfgsBuf
		sc.Configs, editedRow = t.rowsBuf, k
		for j, cfg := range e.cfgs {
			sc.links |= cfg.Forward &^ mesh.Dirs(mesh.Ramp)
			sc.hCfg += hashConfig(e.color, len(old)+j, cfg)
		}
	case editSlots:
		sc.ClockSlots = e.n
	}
	return t.intern(newOps, editedRow)
}

// adopt returns this table's program equal to p, a program of another
// table, sharing p's ops and routing rows if it has to make one.
func (t *table) adopt(p *Program) *Program {
	t.scratch = Program{Ops: p.Ops, Configs: p.Configs, ClockSlots: p.ClockSlots, links: p.links, hOps: p.hOps, hCfg: p.hCfg}
	return t.intern(false, -1)
}

// intern returns the table's program equal to the scratch program, its hash
// parts set, making it when there is none. The scratch program's ops are in
// the scratch buffer when newOps, and so is its routing table, with row
// editedRow's list, when editedRow ≥ 0; the rest it shares with a program of
// a table.
func (t *table) intern(newOps bool, editedRow int) *Program {
	sc := &t.scratch
	q, slot := t.find(sc)
	if q != nil {
		return q
	}
	p := &t.pool.take(1, arenaChunk)[0]
	*p = *sc
	if newOps {
		p.Ops = t.ops.clone(sc.Ops)
	}
	if editedRow >= 0 {
		p.Configs = t.rows.clone(sc.Configs)
		p.Configs[editedRow].Cfgs = t.cfgs.clone(sc.Configs[editedRow].Cfgs)
	}
	if len(p.Ops) == 0 {
		p.Ops = nil
	}
	if len(p.Configs) == 0 {
		p.Configs = nil
	}
	t.add(p, slot)
	return p
}

// find returns the table's program equal to p, whose hash parts are set, or
// nil and the free slot p's hash leads to. It first indexes the table if
// Programs dropped the index.
func (t *table) find(p *Program) (*Program, int) {
	if t.slots == nil {
		t.rehash(len(t.progs))
	}
	mask := len(t.slots) - 1
	i := int(combineHash(p.hOps, p.hCfg, p.ClockSlots)) & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if q := t.progs[t.slots[i]-1]; q.hOps == p.hOps && q.hCfg == p.hCfg && sameProgram(q, p) {
			return q, i
		}
	}
	return nil, i
}

// add numbers p next and files it at slot, the free slot find returned.
func (t *table) add(p *Program, slot int) {
	p.id = int32(len(t.progs))
	t.progs = append(t.progs, p)
	t.slots[slot] = int32(len(t.progs))
	if 2*len(t.progs) > len(t.slots) {
		t.rehash(len(t.progs))
	}
}

// rehash rebuilds the hash index at a size that keeps n programs at most
// half of it.
func (t *table) rehash(n int) {
	size := 16
	for size < 2*n+2 {
		size <<= 1
	}
	t.slots = make([]int32, size)
	mask := size - 1
	for k, p := range t.progs {
		i := int(combineHash(p.hOps, p.hCfg, p.ClockSlots)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(k + 1)
	}
}

// Programs returns the distinct programs the PEs run, in row-major order of
// first use: program k is the k-th the row-major walk meets. After writes,
// it first drops the programs the build passed through that no PE runs, and
// renumbers the placement to match.
func (s *Spec) Programs() []*Program {
	t := s.tab
	if !t.stale {
		return t.progs
	}
	for _, p := range t.progs {
		p.id = -1
		p.next = nil
	}
	kept := t.progs[:0:0]
	for i, k := range s.place {
		if k == 0 {
			continue
		}
		p := t.progs[k-1]
		if p.id < 0 {
			p.id = int32(len(kept))
			kept = append(kept, p)
		}
		s.place[i] = p.id + 1
	}
	clear(t.progs)
	t.progs, t.slots, t.blank, t.stale = kept, nil, nil, false
	return kept
}

// sameProgram reports whether two programs have the same ops, routing table
// and clock slots.
func sameProgram(a, b *Program) bool {
	if a.ClockSlots != b.ClockSlots || !slices.Equal(a.Ops, b.Ops) || len(a.Configs) != len(b.Configs) {
		return false
	}
	for k := range a.Configs {
		if a.Configs[k].Color != b.Configs[k].Color || !slices.Equal(a.Configs[k].Cfgs, b.Configs[k].Cfgs) {
			return false
		}
	}
	return true
}

// linksOf is the link directions a routing table forwards to.
func linksOf(rows []ColorConfig) mesh.DirSet {
	var links mesh.DirSet
	for _, row := range rows {
		for _, cfg := range row.Cfgs {
			links |= cfg.Forward
		}
	}
	return links &^ mesh.Dirs(mesh.Ramp)
}

// The content hash of a program comes in two parts that a write updates
// without rereading the program: hOps folds the ops in order, and hCfg sums
// a hash of every configuration with its color and its place in the
// color's list, so growing any list adds one term.

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

func hashOps(h uint64, ops []Op) uint64 {
	for i := range ops {
		op := &ops[i]
		h = mix(h ^ uint64(op.Kind) ^ uint64(op.Color)<<8 ^ uint64(op.OutColor)<<16 ^ uint64(op.Reduce)<<24 ^ uint64(op.Slot)<<32)
		h = mix(h ^ uint64(op.N) ^ uint64(op.Off)<<32)
		h = mix(h ^ uint64(op.N2) ^ uint64(op.Off2)<<32)
	}
	return h
}

func hashConfig(color mesh.Color, pos int, cfg RouterConfig) uint64 {
	return mix(mix(uint64(color)<<48^uint64(pos)<<16^uint64(cfg.Accept)<<8^uint64(cfg.Forward)) ^ uint64(cfg.Times))
}

func programHash(p *Program) (hOps, hCfg uint64) {
	for _, row := range p.Configs {
		for j, cfg := range row.Cfgs {
			hCfg += hashConfig(row.Color, j, cfg)
		}
	}
	return hashOps(0, p.Ops), hCfg
}

func combineHash(hOps, hCfg uint64, slots int) uint64 {
	return mix(hOps ^ mix(hCfg^uint64(slots)))
}

// arena hands out fresh elements from a few large arrays, so a table's
// programs, built or decoded, cost an allocation or two each kind, not a
// few each.
type arena[T any] struct{ free []T }

// arenaChunk sizes a building table's arrays: most hold a few dozen programs.
const arenaChunk = 32

// take returns n zeroed elements no one else holds, capped at n, nil when n
// is 0. When the current array is used up, the next holds max(n, size).
func (a *arena[T]) take(n, size int) []T {
	if n == 0 {
		return nil
	}
	if n > len(a.free) {
		a.free = make([]T, max(n, size))
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// clone copies src into fresh elements, nil when it is empty.
func (a *arena[T]) clone(src []T) []T {
	out := a.take(len(src), arenaChunk)
	copy(out, src)
	return out
}

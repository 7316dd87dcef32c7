package fabric

import (
	"slices"
	"testing"

	"repro/internal/mesh"
)

// TestInternIsCanonical: equal programs share one entry of the table,
// whichever writes made them — here two PEs reach one routing table by
// adding its colors in either order, and one op list by one write or two —
// and unequal ones never do.
func TestInternIsCanonical(t *testing.T) {
	s := NewSpec(4, 1)
	a, b, c := mesh.Coord{X: 0}, mesh.Coord{X: 1}, mesh.Coord{X: 2}
	east := RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East)}
	west := RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)}
	send := Op{Kind: OpSend, Color: 1, N: 4}
	recv := Op{Kind: OpRecvStore, Color: 2, N: 4}

	s.AddConfig(a, 1, east)
	s.AddConfig(a, 2, west)
	s.Append(a, send, recv)

	s.Append(b, send)
	s.AddConfig(b, 2, west)
	s.Append(b, recv)
	s.AddConfig(b, 1, east)

	s.Append(c, send, recv)
	s.AddConfig(c, 1, west) // another route on color 1: another program
	s.AddConfig(c, 2, west)
	s.PE(mesh.Coord{X: 3})

	if s.At(a) != s.At(b) {
		t.Fatalf("two PEs that run one program hold two entries:\n%+v\n%+v", s.At(a), s.At(b))
	}
	if s.At(a) == s.At(c) {
		t.Fatal("two different programs share an entry")
	}
	progs := s.Programs()
	if len(progs) != 3 {
		t.Fatalf("%d programs in the table, want 3 (the builds' intermediates dropped)", len(progs))
	}
	for k, p := range progs {
		if int(p.id) != k {
			t.Fatalf("program %d numbered %d", k, p.id)
		}
	}
	if progs[0] != s.At(a) || progs[1] != s.At(c) || len(progs[2].Ops) != 0 {
		t.Fatal("the table is not in row-major order of first use")
	}
}

// TestWritesNeverReachSharedPrograms: a write moves one PE to another
// program and leaves every program a PE runs as it was — the PEs that share
// the written PE's old program, and the program itself, storage included.
func TestWritesNeverReachSharedPrograms(t *testing.T) {
	s := NewSpec(3, 1)
	op := Op{Kind: OpRecvReduce, Color: 0, N: 8}
	cfg := RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp), Times: 1}
	for x := range 3 {
		c := mesh.Coord{X: x}
		s.Append(c, op)
		s.AddConfig(c, 0, cfg)
	}
	shared := s.At(mesh.Coord{X: 0})
	opsBefore := slices.Clone(shared.Ops)
	cfgsBefore := slices.Clone(shared.Configs[0].Cfgs)

	mid := mesh.Coord{X: 1}
	s.Append(mid, Op{Kind: OpSend, Color: 1, N: 8})
	s.AddConfig(mid, 0, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.West)})
	s.SetOps(mid, []Op{{Kind: OpBusyWrite, N: 3}})
	s.SetClockSlots(mid, 2)

	for _, x := range []int{0, 2} {
		if s.At(mesh.Coord{X: x}) != shared {
			t.Fatalf("PE %d moved with PE 1", x)
		}
	}
	if !slices.Equal(shared.Ops, opsBefore) || !slices.Equal(shared.Configs[0].Cfgs, cfgsBefore) || shared.ClockSlots != 0 {
		t.Fatalf("a write to PE 1 rewrote the program PEs 0 and 2 share: %+v", shared)
	}
	if cap(shared.Ops) != len(shared.Ops) || cap(shared.Configs) != len(shared.Configs) || cap(shared.Configs[0].Cfgs) != len(shared.Configs[0].Cfgs) {
		t.Fatal("a shared program can be appended to in place")
	}
	got := s.At(mid)
	if len(got.Ops) != 1 || got.Ops[0].Kind != OpBusyWrite || got.ClockSlots != 2 || len(got.ConfigsFor(0)) != 2 {
		t.Fatalf("PE 1 runs %+v", got)
	}
}

// TestStampSharesPrograms: a stamped spec runs its source's programs on the
// same storage, in a table of its own, so writes to it leave the source as
// it was and it encodes byte for byte as the source does.
func TestStampSharesPrograms(t *testing.T) {
	src := codecSpec()
	want, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewSpec(src.Width, src.Height)
	if err := dst.Stamp(src); err != nil {
		t.Fatal(err)
	}
	src.Each(func(c mesh.Coord, p *Program) {
		d := dst.At(c)
		if d == nil || d == p || !slices.Contains(dst.tab.progs, d) || (len(p.Ops) > 0 && &d.Ops[0] != &p.Ops[0]) {
			t.Fatalf("PE %v: stamped as %+v from %+v", c, d, p)
		}
	})
	got, err := dst.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("the stamped spec encodes differently")
	}
	dst.Append(mesh.Coord{}, Op{Kind: OpBusyWrite, N: 1})
	if again, _ := src.MarshalBinary(); string(again) != string(want) {
		t.Fatal("a write to the stamped spec reached its source")
	}
	if err := NewSpec(1, 1).Stamp(src); err == nil {
		t.Fatal("stamped a 3x2 spec into a 1x1 one")
	}
}

// TestNewPEKeepsTheFrameCanonical: programming a PE of a decoded spec
// renumbers its programs in first-use order, so the spec still encodes to
// a frame the decoder takes.
func TestNewPEKeepsTheFrameCanonical(t *testing.T) {
	data, err := codecSpec().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var s Spec
	if err := s.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	s.PE(mesh.Coord{X: 2, Y: 0}) // an empty program, met before (2,1)'s
	again, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := back.UnmarshalBinary(again); err != nil {
		t.Fatalf("the spec with a new PE encodes to a frame the decoder refuses: %v", err)
	}
	if back.Len() != 4 || len(back.Programs()) != 4 {
		t.Fatalf("decoded %d PEs of %d programs, want 4 of 4", back.Len(), len(back.Programs()))
	}
}

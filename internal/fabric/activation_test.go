package fabric

import (
	"testing"

	"repro/internal/mesh"
)

// starLike builds p-1 senders all targeting PE 0 on one color, each
// sender's router turning to pass-through after its own transfer — the
// Star Reduce skeleton.
func starLike(p, b int) *Spec {
	s := NewSpec(p, 1)
	root := s.PE(mesh.Coord{})
	for v := 1; v < p; v++ {
		s.Append(mesh.Coord{}, Op{Kind: OpRecvReduce, Color: 0, N: b})
	}
	root.Init = make([]float32, b)
	s.AddConfig(mesh.Coord{}, 0, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp), Times: p - 1})
	for v := 1; v < p; v++ {
		pe := s.PE(mesh.Coord{X: v, Y: 0})
		pe.Init = make([]float32, b)
		for i := range pe.Init {
			pe.Init[i] = 1
		}
		s.SetOps(mesh.Coord{X: v, Y: 0}, []Op{{Kind: OpSend, Color: 0, N: b}})
		s.AddConfig(mesh.Coord{X: v, Y: 0}, 0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West), Times: 1})
		if v < p-1 {
			s.AddConfig(mesh.Coord{X: v, Y: 0}, 0, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.West)})
		}
	}
	return s
}

func runCycles(t *testing.T, s *Spec, opt Options) int64 {
	t.Helper()
	f, err := New(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

// TestTaskActivationChargesPerTransfer reproduces the §8.5 observation:
// the per-transfer task wake-up hits Star hardest because its root pays
// it P-1 times, while a single long transfer pays it once.
func TestTaskActivationChargesPerTransfer(t *testing.T) {
	const act = 20
	p, b := 9, 16
	base := runCycles(t, starLike(p, b), Options{})
	slow := runCycles(t, starLike(p, b), Options{TaskActivation: act})
	extra := slow - base
	want := int64(act * (p - 1))
	// Some of the stalls overlap with wavelets already queued; the total
	// must be close to (P-1)·act and definitely dominated by it.
	if extra < want-2*act || extra > want+2*act {
		t.Errorf("activation overhead %d cycles, want ≈ %d", extra, want)
	}

	// A single transfer of the same total volume pays once.
	one := twoPE(b * (p - 1))
	baseOne := runCycles(t, one, Options{})
	slowOne := runCycles(t, twoPE(b*(p-1)), Options{TaskActivation: act})
	if d := slowOne - baseOne; d < act-2 || d > act+4 {
		t.Errorf("single-transfer activation overhead %d cycles, want ≈ %d", d, act)
	}
}

// TestTaskActivationPreservesResults: the knob must not change what is
// computed.
func TestTaskActivationPreservesResults(t *testing.T) {
	s := starLike(6, 8)
	f, err := New(s, Options{TaskActivation: 13})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Acc[mesh.Coord{}] {
		if v != 5 {
			t.Fatalf("element %d: %v, want 5", i, v)
		}
	}
}

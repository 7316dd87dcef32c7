package fabric

import (
	"testing"

	"repro/internal/mesh"
)

func sameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles %d, want %d", label, got.Cycles, want.Cycles)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	if len(got.Acc) != len(want.Acc) {
		t.Fatalf("%s: %d PEs in result, want %d", label, len(got.Acc), len(want.Acc))
	}
	for c, w := range want.Acc {
		g := got.Acc[c]
		if len(g) != len(w) {
			t.Fatalf("%s: PE %v acc length %d, want %d", label, c, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: PE %v acc[%d] = %v, want %v", label, c, i, g[i], w[i])
			}
		}
	}
	for c, w := range want.Clocks {
		g := got.Clocks[c]
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: PE %v clock[%d] = %v, want %v", label, c, i, g[i], w[i])
			}
		}
	}
}

// TestResetReproducesFreshRun: a Reset fabric must replay bit for bit what
// a fresh New produces, including the RNG-driven behaviours (clock skew
// offsets and thermal no-op streams), across several consecutive resets.
func TestResetReproducesFreshRun(t *testing.T) {
	opts := []Options{
		{},
		{ThermalNoopRate: 0.07, Seed: 21, ClockSkewMax: 256},
		{TR: 4, QueueCap: 2},
	}
	for _, opt := range opts {
		spec := twoPE(96)
		fresh, err := New(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := f.Run()
			if err != nil {
				t.Fatalf("replay %d: %v", rep, err)
			}
			sameResult(t, want, got, "reset replay")
			if err := f.Reset(spec); err != nil {
				t.Fatalf("reset %d: %v", rep, err)
			}
		}
	}
}

// TestResetRebindsInputs: resetting with a spec holding different Init
// vectors must compute with the new data.
func TestResetRebindsInputs(t *testing.T) {
	spec := twoPE(8)
	f, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range spec.PE(mesh.Coord{X: 1, Y: 0}).Init {
		spec.PE(mesh.Coord{X: 1, Y: 0}).Init[i] = float32(10 * i)
	}
	if err := f.Reset(spec); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Acc[mesh.Coord{}] {
		if v != float32(10*i) {
			t.Fatalf("element %d: %v, want %v", i, v, float32(10*i))
		}
	}
}

// TestResetSurvivesFailedRun: a fabric whose run errored (protocol
// violation) must be fully re-armable.
func TestResetSurvivesFailedRun(t *testing.T) {
	bad := twoPE(8)
	bad.SetOps(mesh.Coord{}, []Op{{Kind: OpRecvStore, Color: 0, N: 4}})
	f, err := New(bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Fatal("want protocol error")
	}
	good := twoPE(8)
	if err := f.Reset(good); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Acc[mesh.Coord{}] {
		if v != float32(i) {
			t.Fatalf("element %d after reset: %v", i, v)
		}
	}
}

// TestResetRejectsStructuralMismatch: a spec with a different shape or PE
// set must be refused, not silently misexecuted.
func TestResetRejectsStructuralMismatch(t *testing.T) {
	f, err := New(twoPE(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.Reset(twoPE(8)); err != nil {
		t.Fatalf("matching spec refused: %v", err)
	}
	other := NewSpec(3, 1)
	if err := f.Reset(other); err == nil {
		t.Error("accepted wrong-shaped spec")
	}
	moved := NewSpec(2, 1)
	moved.PE(mesh.Coord{X: 0, Y: 0})
	moved.AddConfig(mesh.Coord{X: 1, Y: 0}, 3, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
	if err := f.Reset(moved); err == nil {
		t.Error("accepted spec with different routing colors")
	}
}

// rowStream builds a three-PE row on color 0 streaming b wavelets from one
// end to the other. Westward, PE 2 sends, PE 1 passes through and PE 0
// stores; eastward, PE 0 sends, PE 1 both stores a copy and forwards
// (multicast) and PE 2 stores. The two programs have the same shape — the
// same PEs, each with color 0 alone — and share no route, no inbox and no
// sender.
func rowStream(b int, eastward bool) *Spec {
	s := NewSpec(3, 1)
	src, dst, toward, from := 2, 0, mesh.West, mesh.East
	mid := RouterConfig{Accept: from, Forward: mesh.Dirs(toward)}
	if eastward {
		src, dst, toward, from = 0, 2, mesh.East, mesh.West
		mid = RouterConfig{Accept: from, Forward: mesh.Dirs(toward, mesh.Ramp)}
		s.SetOps(mesh.Coord{X: 1}, []Op{{Kind: OpRecvStore, Color: 0, N: b}})
	}
	s.AddConfig(mesh.Coord{X: 1}, 0, mid)
	send := s.PE(mesh.Coord{X: src})
	send.Init = make([]float32, b)
	for i := range send.Init {
		send.Init[i] = float32(i + src)
	}
	s.SetOps(mesh.Coord{X: src}, []Op{{Kind: OpSend, Color: 0, N: b}})
	s.AddConfig(mesh.Coord{X: src}, 0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(toward)})
	s.PE(mesh.Coord{X: dst})
	s.SetOps(mesh.Coord{X: dst}, []Op{{Kind: OpRecvStore, Color: 0, N: b}})
	s.AddConfig(mesh.Coord{X: dst}, 0, RouterConfig{Accept: from, Forward: mesh.Dirs(mesh.Ramp)})
	return s
}

// TestResetResolvesNewRoutes: the fabric resolves routes, inboxes and queue
// windows once per program, so a Reset with a different spec of the same
// shape must resolve them again — Accept sides, Forward sets, which PEs
// own an inbox and which ramps carry traffic all differ here — and then
// reproduce a fresh New bit for bit, in both directions.
func TestResetResolvesNewRoutes(t *testing.T) {
	for _, opt := range []Options{{}, {ThermalNoopRate: 0.1, Seed: 5, ClockSkewMax: 64}, {QueueCap: 1, Shards: 2}} {
		west, east := rowStream(40, false), rowStream(40, true)
		f, err := New(west, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
		for rep, spec := range []*Spec{east, west, east} {
			fresh, err := New(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Reset(spec); err != nil {
				t.Fatalf("reset %d: %v", rep, err)
			}
			got, err := f.Run()
			if err != nil {
				t.Fatalf("run after reset %d: %v", rep, err)
			}
			sameResult(t, want, got, "reset onto new routes")
		}
	}
}

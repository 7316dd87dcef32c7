package fabric

import (
	"strings"
	"testing"

	"repro/internal/mesh"
)

// twoPE builds a minimal sender→receiver program: PE (1,0) streams b
// wavelets west on color 0; PE (0,0) receives and stores them.
func twoPE(b int) *Spec {
	s := NewSpec(2, 1)
	s.PE(mesh.Coord{X: 0, Y: 0})
	s.SetOps(mesh.Coord{X: 0, Y: 0}, []Op{{Kind: OpRecvStore, Color: 0, N: b}})
	s.AddConfig(mesh.Coord{X: 0, Y: 0}, 0, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	send := s.PE(mesh.Coord{X: 1, Y: 0})
	send.Init = make([]float32, b)
	for i := range send.Init {
		send.Init[i] = float32(i)
	}
	s.SetOps(mesh.Coord{X: 1, Y: 0}, []Op{{Kind: OpSend, Color: 0, N: b}})
	s.AddConfig(mesh.Coord{X: 1, Y: 0}, 0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
	return s
}

func TestMessageTiming(t *testing.T) {
	// §4.1: sending B wavelets one hop costs ~B + distance + 2T_R.
	for _, b := range []int{1, 16, 256} {
		f, err := New(twoPE(b), Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		model := int64(b + 1 + 2*DefaultTR)
		if res.Cycles < model || res.Cycles > model+8 {
			t.Errorf("b=%d: %d cycles, model %d", b, res.Cycles, model)
		}
		got := res.Acc[mesh.Coord{}]
		for i := range got {
			if got[i] != float32(i) {
				t.Fatalf("b=%d element %d: %v", b, i, got[i])
			}
		}
	}
}

// TestCanonicalOptionsRunAsGiven: canonical options are what plans carry and
// run under, so they must execute as the options they came from, the
// literal zero-latency ramp (TR -1) included, whose canonical spelling must
// not read as 0, the default.
func TestCanonicalOptionsRunAsGiven(t *testing.T) {
	for _, tr := range []int{-1, 0, 1, 2, 4} {
		o := Options{TR: tr, QueueCap: 8}
		var cycles [2]int64
		for i, opt := range []Options{o, o.Canonical()} {
			f, err := New(chainLike(24, 20), opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run()
			if err != nil {
				t.Fatalf("TR %d: %v", tr, err)
			}
			cycles[i] = res.Cycles
		}
		if cycles[0] != cycles[1] {
			t.Errorf("TR %d: %d cycles as given, %d canonically (TR %d)", tr, cycles[0], cycles[1], o.Canonical().TR)
		}
		if c := o.Canonical(); c.Canonical() != c {
			t.Errorf("TR %d: canonicalising twice moved the options: %+v, then %+v", tr, c, c.Canonical())
		}
	}
}

func TestRampLatencyScaling(t *testing.T) {
	// One-hop message latency must grow by 2 cycles per unit of T_R
	// (down and up the ramp). Queues must cover the bandwidth-delay
	// product (T_R cycles of in-flight ramp wavelets) to sustain line
	// rate, hence the deeper-than-default queue for large T_R; see
	// TestQueueMustCoverRampLatency.
	prev := int64(0)
	for _, tr := range []int{1, 2, 3, 4} {
		f, err := New(twoPE(64), Options{TR: tr, QueueCap: 16})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tr > 1 && res.Cycles != prev+2 {
			t.Errorf("TR=%d: %d cycles, want %d", tr, res.Cycles, prev+2)
		}
		prev = res.Cycles
	}
}

func TestQueueMustCoverRampLatency(t *testing.T) {
	// A real flow-control effect the simulator reproduces: when the ramp
	// latency exceeds what the bounded inbox can cover (bandwidth-delay
	// product > queue capacity), the stream can no longer sustain one
	// wavelet per cycle. The WSE-2 point (T_R=2, queues 4) streams at
	// line rate.
	shallow, err := New(twoPE(64), Options{TR: 5, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	resShallow, err := shallow.Run()
	if err != nil {
		t.Fatal(err)
	}
	deep, err := New(twoPE(64), Options{TR: 5, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	resDeep, err := deep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resShallow.Cycles <= resDeep.Cycles {
		t.Errorf("shallow queues %d cycles, deep %d: expected throughput loss", resShallow.Cycles, resDeep.Cycles)
	}
}

// starved builds a receiver waiting on a color nobody sends.
func starved() *Spec {
	s := NewSpec(2, 1)
	s.PE(mesh.Coord{X: 0, Y: 0})
	s.SetOps(mesh.Coord{X: 0, Y: 0}, []Op{{Kind: OpRecvStore, Color: 3, N: 4}})
	s.AddConfig(mesh.Coord{X: 0, Y: 0}, 3, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
	s.AddConfig(mesh.Coord{X: 1, Y: 0}, 3, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
	return s
}

func TestDeadlockDetection(t *testing.T) {
	// A receiver waiting on a color nobody sends must be reported as a
	// deadlock, not spin forever.
	f, err := New(starved(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

// TestSendOnColorRouterNeverAccepts: queue windows are laid out for what
// the program can push, not for what routers accept. A processor sending on
// a color its router only ever accepts from the east still fills its ramp
// queue and blocks there, and one sending on a color its router has no
// table for blocks at once; both must end in the deadlock diagnostic naming
// the PE.
func TestSendOnColorRouterNeverAccepts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		color mesh.Color
	}{
		{"accepted from the east only", 0},
		{"no routing table", 7},
	} {
		s := twoPE(8)
		lost := s.PE(mesh.Coord{})
		lost.Init = make([]float32, 8)
		s.SetOps(mesh.Coord{}, []Op{{Kind: OpSend, Color: tc.color, N: 8}})
		for _, opt := range []Options{{}, {QueueCap: 1}, {Shards: 2}} {
			f, err := New(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.Run()
			if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "PE (0,0) blocked on op 0 send") {
				t.Errorf("%s, %+v: want a deadlock naming PE (0,0), got %v", tc.name, opt, err)
			}
		}
	}
}

func TestProtocolViolationDetected(t *testing.T) {
	// Receiver expects fewer elements than the sender ships: the excess
	// data wavelet must fail the run with a protocol error.
	s := twoPE(8)
	s.SetOps(mesh.Coord{}, []Op{{Kind: OpRecvStore, Color: 0, N: 4}})
	f, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Fatal("want protocol error for excess data")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	// Forwarding off-grid.
	s := NewSpec(1, 1)
	s.PE(mesh.Coord{})
	s.AddConfig(mesh.Coord{}, 0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
	if _, err := New(s, Options{}); err == nil {
		t.Error("want error for off-grid forward")
	}
	// Forwarding to an unprogrammed PE.
	s2 := NewSpec(2, 1)
	s2.AddConfig(mesh.Coord{}, 0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East)})
	if _, err := New(s2, Options{}); err == nil {
		t.Error("want error for unprogrammed destination")
	}
	// Non-final config that absorbs forever.
	s3 := NewSpec(2, 1)
	s3.PE(mesh.Coord{})
	s3.AddConfig(mesh.Coord{}, 0, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp), Times: 0})
	s3.AddConfig(mesh.Coord{}, 0, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp), Times: 1})
	s3.PE(mesh.Coord{X: 1, Y: 0})
	if _, err := New(s3, Options{}); err == nil {
		t.Error("want error for unreachable config")
	}
	// Bad busy-write count.
	s4 := NewSpec(1, 1)
	s4.SetOps(mesh.Coord{}, []Op{{Kind: OpBusyWrite, N: -1}})
	if _, err := New(s4, Options{}); err == nil {
		t.Error("want error for negative busy-write")
	}
}

func TestControlWaveletAdvancesConfig(t *testing.T) {
	// Receiver takes two vectors from opposite sides, switching on the
	// control wavelet: the Figure 3 scenario.
	b := 4
	s := NewSpec(3, 1)
	mid := s.PE(mesh.Coord{X: 1, Y: 0})
	s.SetOps(mesh.Coord{X: 1, Y: 0}, []Op{
		{Kind: OpRecvReduce, Color: 0, N: b},
		{Kind: OpRecvReduce, Color: 0, N: b},
	})
	s.AddConfig(mesh.Coord{X: 1, Y: 0}, 0, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp), Times: 1})
	s.AddConfig(mesh.Coord{X: 1, Y: 0}, 0, RouterConfig{Accept: mesh.West, Forward: mesh.Dirs(mesh.Ramp), Times: 1})
	mid.Init = make([]float32, b)

	east := s.PE(mesh.Coord{X: 2, Y: 0})
	east.Init = []float32{1, 2, 3, 4}
	s.SetOps(mesh.Coord{X: 2, Y: 0}, []Op{{Kind: OpSend, Color: 0, N: b}})
	s.AddConfig(mesh.Coord{X: 2, Y: 0}, 0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})

	west := s.PE(mesh.Coord{X: 0, Y: 0})
	west.Init = []float32{10, 20, 30, 40}
	s.SetOps(mesh.Coord{X: 0, Y: 0}, []Op{{Kind: OpSend, Color: 0, N: b}})
	s.AddConfig(mesh.Coord{X: 0, Y: 0}, 0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.East)})

	f, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Acc[mesh.Coord{X: 1, Y: 0}]
	want := []float32{11, 22, 33, 44}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBackpressureBoundsQueues(t *testing.T) {
	// However long the stream, bounded queues must never exceed the
	// configured capacity.
	f, err := New(twoPE(512), Options{QueueCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxQueueLen > 3 {
		t.Errorf("max queue length %d exceeds capacity 3", res.Stats.MaxQueueLen)
	}
}

func TestEnergyAccounting(t *testing.T) {
	// The Hops statistic is the paper's energy metric: B wavelets + 1
	// control over one link.
	f, err := New(twoPE(32), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Hops != 33 {
		t.Errorf("energy %d hops, want 33", res.Stats.Hops)
	}
	if res.Stats.MaxReceived != 32 {
		t.Errorf("contention %d, want 32", res.Stats.MaxReceived)
	}
}

func TestThermalNoopsSlowRun(t *testing.T) {
	base, err := New(twoPE(256), Options{})
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	hot, err := New(twoPE(256), Options{ThermalNoopRate: 0.2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	resHot, err := hot.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resHot.Stats.Noops == 0 {
		t.Error("no thermal no-ops inserted")
	}
	if resHot.Cycles <= resBase.Cycles {
		t.Errorf("thermal run %d cycles not slower than %d", resHot.Cycles, resBase.Cycles)
	}
}

func TestClockSkewSampling(t *testing.T) {
	s := twoPE(4)
	s.Each(func(c mesh.Coord, p *Program) {
		s.SetClockSlots(c, 1)
		s.SetOps(c, append([]Op{{Kind: OpSampleClock, Slot: 0}}, p.Ops...))
	})
	f, err := New(s, Options{ClockSkewMax: 1 << 20, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	a := res.Clocks[mesh.Coord{}][0]
	b := res.Clocks[mesh.Coord{X: 1, Y: 0}][0]
	if a == b {
		t.Error("expected skewed clocks to differ")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		f, err := New(twoPE(128), Options{ThermalNoopRate: 0.05, Seed: 42, ClockSkewMax: 100})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Cycles != r2.Cycles || r1.Stats != r2.Stats {
		t.Errorf("non-deterministic runs: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

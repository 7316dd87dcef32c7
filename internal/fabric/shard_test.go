package fabric

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
)

// chainLike builds a p-PE pipelined chain reduce on one row: PE p-1 sends,
// middle PEs recv-reduce-send, PE 0 recv-reduces — the backpressure-heavy
// skeleton of the paper's vendor pattern.
func chainLike(p, b int) *Spec {
	s := NewSpec(p, 1)
	// The link between v and v-1 carries color v%2, so adjacent hops use
	// distinct colors and each router accepts each color from one side.
	for v := 0; v < p; v++ {
		pe := s.PE(mesh.Coord{X: v, Y: 0})
		pe.Init = make([]float32, b)
		for i := range pe.Init {
			pe.Init[i] = 1
		}
		out := mesh.Color(v % 2)
		in := mesh.Color((v + 1) % 2)
		switch {
		case v == p-1:
			pe.Ops = []Op{{Kind: OpSend, Color: out, N: b}}
			pe.AddConfig(out, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
		case v > 0:
			pe.Ops = []Op{{Kind: OpRecvReduceSend, Color: in, OutColor: out, N: b}}
			pe.AddConfig(in, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
			pe.AddConfig(out, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.West)})
		default:
			pe.Ops = []Op{{Kind: OpRecvReduce, Color: in, N: b}}
			pe.AddConfig(in, RouterConfig{Accept: mesh.East, Forward: mesh.Dirs(mesh.Ramp)})
		}
	}
	return s
}

// gridBounce builds a w×h grid where every PE of row 0 streams a vector
// south down its column and the bottom row reduces — a 2D wavefront that
// crosses every row-band boundary of the sharded engine.
func gridBounce(w, h, b int) *Spec {
	s := NewSpec(w, h)
	for x := 0; x < w; x++ {
		top := s.PE(mesh.Coord{X: x, Y: 0})
		top.Init = make([]float32, b)
		for i := range top.Init {
			top.Init[i] = float32(x + 1)
		}
		top.Ops = []Op{{Kind: OpSend, Color: 0, N: b}}
		top.AddConfig(0, RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.South)})
		for y := 1; y < h-1; y++ {
			mid := s.PE(mesh.Coord{X: x, Y: y})
			mid.AddConfig(0, RouterConfig{Accept: mesh.North, Forward: mesh.Dirs(mesh.South)})
			mid.Ops = nil
		}
		bot := s.PE(mesh.Coord{X: x, Y: h - 1})
		bot.Init = make([]float32, b)
		bot.Ops = []Op{{Kind: OpRecvReduce, Color: 0, N: b}}
		bot.AddConfig(0, RouterConfig{Accept: mesh.North, Forward: mesh.Dirs(mesh.Ramp)})
	}
	return s
}

// TestShardedBitIdentical: every shard count must yield exactly the serial
// engine's cycles, stats, accumulators and clock samples, including under
// clock skew, thermal no-ops and task-activation charges.
func TestShardedBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		spec func() *Spec
		opt  Options
	}{
		{"two-pe-stream", func() *Spec { return twoPE(64) }, Options{}},
		{"star-contended", func() *Spec { return starLike(13, 12) }, Options{}},
		{"star-thermal-skew", func() *Spec { return starLike(11, 8) }, Options{ThermalNoopRate: 0.08, Seed: 5, ClockSkewMax: 128}},
		{"chain-pipelined", func() *Spec { return chainLike(24, 20) }, Options{}},
		{"chain-activation", func() *Spec { return chainLike(9, 6) }, Options{TaskActivation: 7}},
		{"grid-wavefront", func() *Spec { return gridBounce(6, 8, 10) }, Options{QueueCap: 2}},
	}
	for _, tc := range cases {
		opt := tc.opt
		opt.Shards = 1
		serial, err := New(tc.spec(), opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := serial.Run()
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		for _, shards := range []int{2, 3, 7, 64} {
			opt.Shards = shards
			f, err := New(tc.spec(), opt)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			got, err := f.Run()
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			sameResult(t, want, got, fmt.Sprintf("%s shards=%d", tc.name, shards))
		}
	}
}

// TestShardedReset: pooling and sharding compose — a sharded fabric reset
// and re-run reproduces itself.
func TestShardedReset(t *testing.T) {
	spec := gridBounce(5, 9, 8)
	opt := Options{Shards: 4, ThermalNoopRate: 0.03, Seed: 11}
	f, err := New(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		if err := f.Reset(spec); err != nil {
			t.Fatal(err)
		}
		got, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got, "sharded reset replay")
	}
}

// TestShardedWorkerPathBitIdentical forces the parallel dispatch path
// (which small fabrics normally skip via the coordinator fallback) so the
// worker goroutines, barrier handoff and cross-shard wake buffers are
// exercised — and raced, under -race — on every test spec.
func TestShardedWorkerPathBitIdentical(t *testing.T) {
	old := shardDispatchThreshold
	shardDispatchThreshold = 0
	defer func() { shardDispatchThreshold = old }()
	cases := []struct {
		name string
		spec func() *Spec
		opt  Options
	}{
		{"star-thermal-skew", func() *Spec { return starLike(11, 8) }, Options{ThermalNoopRate: 0.08, Seed: 5, ClockSkewMax: 128}},
		{"chain-pipelined", func() *Spec { return chainLike(24, 20) }, Options{}},
		{"grid-wavefront", func() *Spec { return gridBounce(6, 8, 10) }, Options{QueueCap: 2}},
	}
	for _, tc := range cases {
		opt := tc.opt
		opt.Shards = 1
		serial, err := New(tc.spec(), opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := serial.Run()
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		for _, shards := range []int{2, 4} {
			opt.Shards = shards
			f, err := New(tc.spec(), opt)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			got, err := f.Run()
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			sameResult(t, want, got, fmt.Sprintf("%s worker-path shards=%d", tc.name, shards))
		}
	}
}

// TestShardedErrorPropagates: protocol violations inside a worker shard
// must surface as ordinary run errors.
func TestShardedErrorPropagates(t *testing.T) {
	spec := twoPE(8)
	spec.PE(mesh.Coord{}).Ops = []Op{{Kind: OpRecvStore, Color: 0, N: 4}}
	f, err := New(spec, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Fatal("want protocol error from sharded run")
	}
}

// TestAutoShards pins the Shards=0 auto-tune rule: one band per available
// CPU, bands never smaller than autoShardMinBand PEs, serial when either
// bound collapses it to one.
func TestAutoShards(t *testing.T) {
	old := autoShardProcs
	defer func() { autoShardProcs = old }()
	cases := []struct {
		procs, pes, want int
	}{
		{1, 100000, 1},                  // one CPU: serial, regardless of size
		{8, autoShardMinBand - 1, 1},    // sub-floor fabric: serial
		{8, 512, 1},                     // the p=512 bench chain stays serial
		{8, 2 * autoShardMinBand, 2},    // band floor caps the CPU count
		{8, 100 * autoShardMinBand, 8},  // large fabric: one band per CPU
		{4, 3*autoShardMinBand + 50, 3}, // integer band floor
	}
	for _, tc := range cases {
		autoShardProcs = func() int { return tc.procs }
		if got := autoShards(tc.pes); got != tc.want {
			t.Errorf("autoShards(%d PEs, %d procs) = %d, want %d", tc.pes, tc.procs, got, tc.want)
		}
	}
}

// TestAutoShardsBitIdentical models a many-core host on whatever box runs
// the tests: a fabric built with Shards=0 must auto-shard (len(shards)>1)
// and still reproduce the explicit serial engine bit for bit.
func TestAutoShardsBitIdentical(t *testing.T) {
	oldProcs := autoShardProcs
	oldBand := autoShardMinBand
	autoShardProcs = func() int { return 4 }
	autoShardMinBand = 8 // keep the test spec small
	defer func() { autoShardProcs = oldProcs; autoShardMinBand = oldBand }()

	spec := gridBounce(6, 8, 10)
	serial, err := New(gridBounce(6, 8, 10), Options{Shards: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	auto, err := New(spec, Options{QueueCap: 2}) // Shards unset
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.shards) != 4 {
		t.Fatalf("auto-tuned fabric has %d shards, want 4", len(auto.shards))
	}
	got, err := auto.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got, "auto-sharded vs serial")
}

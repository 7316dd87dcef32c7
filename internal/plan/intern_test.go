package plan

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
)

// coldRequests are the nine shapes of the benchmark's cold-compile and
// cold-store workloads.
func coldRequests() []Request {
	return []Request{
		{Kind: Reduce1D, Alg: core.Auto, P: 512, B: 4},
		{Kind: Reduce1D, Alg: core.TwoPhase, P: 512, B: 4},
		{Kind: AllReduce1D, Alg: core.Auto, P: 256, B: 4},
		{Kind: AllReduceMidRoot, Alg: core.TwoPhase, P: 257, B: 4},
		{Kind: Broadcast1D, P: 512, B: 4},
		{Kind: Reduce2D, Alg2D: core.Auto2D, Width: 32, Height: 32, B: 4},
		{Kind: AllReduce2D, Alg2D: core.Auto2D, Width: 32, Height: 32, B: 4},
		{Kind: Broadcast2D, Width: 32, Height: 32, B: 4},
		{Kind: Gather, P: 64, B: 64},
	}
}

// grid512 is the paper's largest fabric under the reduce Auto deploys.
var grid512 = Request{Kind: Reduce2D, Alg2D: core.Auto2D, Width: 512, Height: 512, B: 4}

// TestDistinctProgramCounts pins how many distinct PE programs a compiled
// plan holds: PEs that play one role in a collective share one program, so
// the nine cold shapes' 5,185 PEs run 187, and the 262,144 PEs of a 512×512
// reduce 21.
func TestDistinctProgramCounts(t *testing.T) {
	want := []int{19, 8, 22, 15, 3, 21, 91, 5, 3}
	total := 0
	for i, req := range coldRequests() {
		p, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		n := len(p.Spec.Programs())
		total += n
		if n != want[i] {
			t.Errorf("%v: %d distinct programs over %d PEs, want %d", KeyOf(req), n, p.Spec.Len(), want[i])
		}
	}
	if total != 187 {
		t.Errorf("the cold shapes run %d distinct programs, want 187", total)
	}
	if testing.Short() {
		return
	}
	p, err := Compile(grid512)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.Spec.Programs()); n != 21 || p.Spec.Len() != 512*512 {
		t.Errorf("512x512 reduce2d: %d distinct programs over %d PEs, want 21 over %d", n, p.Spec.Len(), 512*512)
	}
}

// TestCompileBytes ratchets what a compile allocates, now that a build
// makes each distinct program once and a PE costs a 4-byte placement entry:
// one pass over the nine cold shapes under 640 KB (585 KB measured; 2.78 MB
// when every PE grew its own program, 748 KB with a 32-byte record a PE), a
// 512×512 reduce under 1,330 KB (1.18 MB; 121 MB, then 8.2 MB).
func TestCompileBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	// The least of three passes: anything else the process allocates
	// meanwhile only adds.
	bytes := func(reqs ...Request) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, req := range reqs {
				if _, err := Compile(req); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	got := bytes(coldRequests()...)
	t.Logf("compiling the nine cold shapes allocates %d B", got)
	if got > 640<<10 {
		t.Errorf("compiling the nine cold shapes allocates %d KB, held to 640 KB", got>>10)
	}
	if testing.Short() {
		return
	}
	got = bytes(grid512)
	t.Logf("compiling a 512x512 reduce allocates %d B", got)
	if got > 1330<<10 {
		t.Errorf("compiling a 512x512 reduce allocates %d KB, held to 1330 KB", got>>10)
	}
}

// BenchmarkCompileCold compiles the nine cold shapes once per iteration.
func BenchmarkCompileCold(b *testing.B) {
	reqs := coldRequests()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := Compile(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompile512 compiles a 512×512 reduce under Auto at B = 4.
func BenchmarkCompile512(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(grid512); err != nil {
			b.Fatal(err)
		}
	}
}

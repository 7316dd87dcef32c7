package planstore

import (
	"math"
	"runtime"
	"testing"
)

// coldFrames are the taped frames of the nine shapes of the benchmark's
// cold-store workload (specSizes[:9]), as the store holds them.
func coldFrames(t testing.TB) [][]byte {
	t.Helper()
	frames := make([][]byte, 0, 9)
	for _, c := range specSizes[:9] {
		p := tapedPlan(t, c.req)
		data, _, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, data)
	}
	return frames
}

// loadCold decodes the frames, each plan with its tape installed
// (Plan.SetTape, under Decode): a store hit's work on the bytes.
func loadCold(t testing.TB, frames [][]byte) {
	for _, data := range frames {
		p, _, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if p.Tape() == nil {
			t.Fatalf("%s: decoded without its tape", p.Kind)
		}
	}
}

// TestLoadBytes ratchets what decoding the nine cold frames allocates, now
// that a decoded plan keeps one 4-byte placement entry a PE and its tape one
// 4-byte offset a PE: 341 KB (most of it the tapes' runs), from 651 KB when
// the spec held a 32-byte record a PE and the tape a coordinate and an int
// offset a PE beside the decoded input lengths.
func TestLoadBytes(t *testing.T) {
	frames := coldFrames(t)
	// The least of three passes: anything else the process allocates
	// meanwhile only adds.
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loadCold(t, frames)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("decoding the nine cold frames allocates %d B", least)
	if least > 375<<10 {
		t.Errorf("decoding the nine cold frames allocates %d KB, held to 375 KB", least>>10)
	}
}

// BenchmarkLoadCold decodes the nine cold frames, tapes installed, once per
// iteration.
func BenchmarkLoadCold(b *testing.B) {
	frames := coldFrames(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		loadCold(b, frames)
	}
}

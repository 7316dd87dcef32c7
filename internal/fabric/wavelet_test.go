package fabric

import (
	"strings"
	"testing"
)

// TestInTransitAcrossWraps: a queued entry keeps its ready cycle modulo
// 2^31, so the comparison must hold wherever the clock is, across each wrap
// of the 31 and 32 bits, for both control flags, as long as the entry lies
// less than 2^30 cycles from the clock.
func TestInTransitAcrossWraps(t *testing.T) {
	for _, at := range []int64{0, 5, 1<<30 - 1, 1 << 30, 1<<31 - 2, 1 << 31, 1<<32 - 1, 1 << 32, 3<<31 + 7, 1<<34 - 3} {
		for _, ctl := range []bool{false, true} {
			e := queued(Wavelet{Val: 1.5, Ctl: ctl}, at)
			if e.ctl() != ctl || e.val != 1.5 {
				t.Fatalf("entry at %d: ctl %v val %v, want %v 1.5", at, e.ctl(), e.val, ctl)
			}
			for _, d := range []int64{-(1<<30 - 1), -maxStall, -2, -1, 0, 1, 2, maxStall, 1<<30 - 1} {
				if got, want := e.inTransit(at+d), d < 0; got != want {
					t.Errorf("ready at %d, clock at %d: in transit %v, want %v", at, at+d, got, want)
				}
			}
		}
	}
}

// TestAgeRingKeepsLongWaitsReady: an entry left in its queue for longer than
// the ready cycle's 2^30-cycle horizon reads as in transit again unless
// ageRing sweeps the ring on the way; with the sweep every ageRingStride
// cycles it stays ready, and an entry still in transit at a sweep stays in
// transit.
func TestAgeRingKeepsLongWaitsReady(t *testing.T) {
	const ready = 1000
	f := &Fabric{ring: []waveEntry{queued(Wavelet{Ctl: true}, ready)}}
	late := int64(ready + 3<<30 + 5)
	if !f.ring[0].inTransit(late) {
		t.Fatal("the unswept entry reads as ready past the horizon: the sweep is not needed")
	}
	for f.cycle = ready; f.cycle < late; f.cycle += ageRingStride {
		f.ageRing()
	}
	if f.ring[0].inTransit(late) || !f.ring[0].ctl() {
		t.Errorf("swept entry: in transit %v, ctl %v; want ready, ctl", f.ring[0].inTransit(late), f.ring[0].ctl())
	}
	f.ring[0] = queued(Wavelet{}, f.cycle+3)
	f.ageRing()
	if !f.ring[0].inTransit(f.cycle+2) || f.ring[0].inTransit(f.cycle+3) {
		t.Error("a sweep moved the ready cycle of an entry in transit")
	}
}

// TestNewRefusesOutOfRangeOptions: the engine's 32-bit stall counters and
// ready cycles hold maxStall cycles; New refuses options beyond that rather
// than run them wrong.
func TestNewRefusesOutOfRangeOptions(t *testing.T) {
	for _, opt := range []Options{{TR: maxStall + 1}, {TaskActivation: maxStall + 1}, {QueueCap: maxStall + 1}} {
		if _, err := New(twoPE(4), opt); err == nil || !strings.Contains(err.Error(), "beyond") {
			t.Errorf("%+v: New returned %v, want an out-of-range error", opt, err)
		}
	}
	if _, err := New(twoPE(4), Options{TR: maxStall, TaskActivation: maxStall, QueueCap: 64}); err != nil {
		t.Errorf("options at the bound refused: %v", err)
	}
}

package model

import (
	"math"
	"testing"

	"repro/internal/comm"
)

// run is the parameterisation a run of this repository's fabric programs is
// predicted under (core.Params): the WSE-2 ramp, one control wavelet.
var run = Params{TR: 2, Ctl: 1}

// TestStarFabricForm: with the control wavelet priced, Star is what the
// simulator runs — 1028 cycles at 512 PEs and one wavelet, 8693 at sixteen —
// and sits above T*(512,1) = 518 where the refined control-free form (516)
// sat under it.
func TestStarFabricForm(t *testing.T) {
	if got := run.StarReduce(512, 1); got != 1028 {
		t.Errorf("star(512,1) = %v, the fabric runs 1028", got)
	}
	if got := run.StarReduce(512, 16); got != 8693 {
		t.Errorf("star(512,16) = %v, the fabric runs 8693", got)
	}
	if got := run.ChainReduce(512, 1); got != 3068 {
		t.Errorf("chain(512,1) = %v, the fabric runs 3068", got)
	}
}

// TestCriticalPathClosedForms: the vertex-by-vertex evaluation of Eq. 1 is
// the Star and Chain closed forms on those trees, and on a power-of-two
// binomial tree the sum the package comment derives.
func TestCriticalPathClosedForms(t *testing.T) {
	for _, p := range []int{1, 2, 3, 16, 64, 512} {
		for _, b := range []int{1, 4, 16, 256} {
			if got, want := run.CriticalPath(comm.Star(p).Parent, b), run.StarReduce(p, b); got != want {
				t.Errorf("star p=%d b=%d: critical path %v, closed form %v", p, b, got, want)
			}
			if got, want := run.CriticalPath(comm.Chain(p).Parent, b), run.ChainReduce(p, b); got != want {
				t.Errorf("chain p=%d b=%d: critical path %v, closed form %v", p, b, got, want)
			}
			if p < 2 || p&(p-1) != 0 {
				continue
			}
			w := float64(b + run.Ctl)
			want := float64(2*run.TR+2) + w
			for hop := 2; hop < p; hop *= 2 {
				want += math.Max(float64(hop)+run.ramp(), w)
			}
			if got := run.CriticalPath(comm.Binomial(p).Parent, b); got != want {
				t.Errorf("binomial p=%d b=%d: critical path %v, closed form %v", p, b, got, want)
			}
		}
	}
	// 595 cycles on the fabric, where Lemma 5.3 with the same transfers says 632.6.
	if got := run.CriticalPath(comm.Binomial(512).Parent, 16); got != 595 {
		t.Errorf("binomial(512,16) = %v, the fabric runs 595", got)
	}
	if got := run.TreeReduce(512, 16); math.Abs(got-632.6) > 0.1 {
		t.Errorf("Lemma 5.3 at (512,16) with control wavelets = %v, want 632.6", got)
	}
}

// TestMidRootLemma: the middle PE is one vertex that takes the west tree's
// root children and then the east tree's, and floods over the longer half.
func TestMidRootLemma(t *testing.T) {
	// Star halves at 512 PEs, one wavelet: 256 + 255 transfers of 2 wavelets
	// queue on the root's ramp behind the nearest leaf's first wavelet (cycle
	// 6), the last is in at 1028, and the 257-PE flood (263) starts in that
	// cycle. The fabric runs 1290; T_half + C_root·(B+Ctl) + T_bcast said 1292.
	if got := run.MidRootAllReduce(comm.Star(257).Parent, comm.Star(256).Parent, 1); got != 1290 {
		t.Errorf("midroot star (512,1) = %v, the fabric runs 1290", got)
	}
	// Binomial halves at 16 PEs: 46 cycles on the fabric, to the cycle.
	if got := run.MidRootAllReduce(comm.Binomial(9).Parent, comm.Binomial(8).Parent, 1); got != 46 {
		t.Errorf("midroot tree (16,1) = %v, the fabric runs 46", got)
	}
	// A late east half delays the root by as long as it is late, not by its
	// whole width: chains on both sides end one transfer after a lone chain
	// over the longer half — not two — and a west half of the root alone
	// costs exactly the east half's Reduce.
	b := 256
	west, east := comm.Chain(9).Parent, comm.Chain(8).Parent
	if got, want := run.MidRootAllReduce(west, east, b), run.Then(run.ChainReduce(9, b)+run.transfer(b), run.Broadcast1D(9, b)); got != want {
		t.Errorf("midroot chain (16,%d) = %v, want %v", b, got, want)
	}
	if got, want := run.MidRootAllReduce(comm.Single().Parent, east, b), run.Then(run.ChainReduce(8, b), run.Broadcast1D(8, b)); got != want {
		t.Errorf("midroot with an empty west half = %v, want the east half's AllReduce %v", got, want)
	}
	if run.MidRootAllReduce(comm.Single().Parent, comm.Single().Parent, 8) != 0 {
		t.Error("a one-PE middle-root AllReduce should be free")
	}
}

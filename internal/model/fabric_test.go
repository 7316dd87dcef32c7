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

// TestStarStreamCalendarFromOneStart: where every PE starts in the same
// cycle, StarStream's calendar is the O(P) recurrence of the package comment
// (starStreamTogether), shifted by the start — on every row of 2 to 40 PEs,
// and from a nil release, the start at 0, on rows of up to 300, as long as
// the 1D AllGather is priced at (queue depths 2, 4 and 16 there) — at
// balanced and unbalanced vector lengths up to the gate, at T_R 1 to 3,
// queue depths 2 to 16 and task activations 0 and 3. Under -short it walks
// the short rows alone.
func TestStarStreamCalendarFromOneStart(t *testing.T) {
	var ps []int
	for p := 2; p <= 40; p++ {
		ps = append(ps, p)
	}
	// The long rows run at queue depths 2, 4 (the engine's default) and 16.
	long := []int{63, 64, 65, 128, 129, 255, 256, 257, 299, 300}
	if testing.Short() {
		long = nil
	}
	for tr := 1; tr <= 3; tr++ {
		for _, qcap := range []int{2, 3, 4, 8, 16} {
			if qcap < tr+1 {
				continue
			}
			for _, act := range []int{0, 3} {
				pr := Params{TR: tr, Ctl: 1, QueueCap: qcap, Activation: act}
				ps := ps
				if qcap == 2 || qcap == 4 || qcap == 16 {
					ps = append(ps[:len(ps):len(ps)], long...)
				}
				for _, p := range ps {
					top := 2*qcap - pr.Ctl
					for _, b := range []int{p, p + 1, p*top/2 + p/2, p*top - 1, p * top} {
						want := pr.starStreamTogether(p, b)
						if got := pr.StarStream(p, b, nil); got != want {
							t.Errorf("T_R=%d qcap=%d act=%d p=%d b=%d from nil: calendar %v, recurrence %v", tr, qcap, act, p, b, got, want)
						}
						if p > 40 {
							continue // the long rows from nil alone
						}
						for _, start := range []float64{7, 2.5} {
							release := make([]float64, p)
							for v := range release {
								release[v] = start
							}
							if got := pr.StarStream(p, b, release); got != start+want {
								t.Errorf("T_R=%d qcap=%d act=%d p=%d b=%d from %v: calendar %v, recurrence %v", tr, qcap, act, p, b, start, got, start+want)
							}
						}
					}
				}
			}
		}
	}
}

// starStreamTogether is StarStream where every PE starts at cycle 0, by the
// package comment's O(P) recurrence: the longest of the paths that reach the
// farthest PE along the flood of one chunk and then take every later one
// back to back.
func (pr Params) starStreamTogether(p, b int) float64 {
	_, w := pr.starFlood(p, b)
	act := float64(pr.Activation)
	s := 0.0 // S_j, from S_1
	for k := 1; k < p; k++ {
		s += act + w[k]
	}
	m := float64(2*pr.TR+1) + w[1] // M_j, from M_1
	reach := m + s                 // the latest M_j + S_j
	for j := 2; j < p; j++ {
		m += max(w[j-1], w[j])
		s -= act + w[j-1]
		reach = max(reach, m+s)
	}
	return reach + float64(2*pr.TR+p/2+1)
}

package main

// paper-grid: the paper's figures as numbers. Every collective kind, under
// every algorithm it accepts, over a lattice of PE counts and vector
// lengths, each cell run one-shot (compile, simulate, discard) and checked
// PE by PE against the host-side reference. Cycle counts are simulated
// time and repeat exactly, so the model-error and bound-ratio metrics
// compare two commits exactly; host time per cell is the one-shot path's
// cost (compile + fabric.New + run).

import (
	"context"
	"fmt"
	"math"
	"time"

	wse "repro"
)

var (
	gridP    = []int{16, 64, 256, 512}
	gridB    = []int{1, 16, 256, 1024, 4096}
	gridSide = []int{8, 16, 32}
	gridB2D  = []int{1, 16, 256}

	gridAlgs   = []wse.Algorithm{wse.Star, wse.Chain, wse.Tree, wse.TwoPhase, wse.AutoGen, wse.Auto}
	gridAlgs2D = []wse.Algorithm2D{wse.XYStar, wse.XYChain, wse.XYTree, wse.XYTwoPhase, wse.XYAutoGen, wse.Snake, wse.Auto2D}
)

// starMaxB keeps Star to short vectors: its root receives P-1 full
// vectors one after another, so long ones cost P*B cycles and host time
// without telling the figures anything new.
const starMaxB = 64

// gridShapes lists the lattice. Ring algorithms and the chunked kinds
// need a non-empty chunk per PE, so they run only where B >= P.
func gridShapes() []wse.Shape {
	var out []wse.Shape
	for _, p := range gridP {
		for _, b := range gridB {
			if p*b > gridMaxVolume {
				continue
			}
			for _, kind := range []wse.Collective{wse.KindReduce, wse.KindAllReduce, wse.KindAllReduceMidRoot} {
				for _, alg := range gridAlgs {
					if alg == wse.Star && b > starMaxB {
						continue
					}
					out = append(out, wse.Shape{Kind: kind, Alg: alg, P: p, B: b})
				}
			}
			out = append(out, wse.Shape{Kind: wse.KindBroadcast, P: p, B: b})
			if b < p {
				continue
			}
			for _, alg := range []wse.Algorithm{wse.Ring, wse.RingDP} {
				out = append(out, wse.Shape{Kind: wse.KindAllReduce, Alg: alg, P: p, B: b})
			}
			for _, kind := range []wse.Collective{wse.KindScatter, wse.KindGather, wse.KindReduceScatter, wse.KindAllGather} {
				out = append(out, wse.Shape{Kind: kind, P: p, B: b})
			}
		}
	}
	for _, side := range gridSide {
		for _, b := range gridB2D {
			if side*side*b > gridMaxVolume {
				continue
			}
			for _, kind := range []wse.Collective{wse.KindReduce2D, wse.KindAllReduce2D} {
				for _, alg := range gridAlgs2D {
					out = append(out, wse.Shape{Kind: kind, Alg2D: alg, Width: side, Height: side, B: b})
				}
			}
			out = append(out, wse.Shape{Kind: wse.KindBroadcast2D, Width: side, Height: side, B: b})
		}
	}
	return out
}

// isAuto reports whether the cell runs what the model picks — the
// deployment the paper advocates, and the one its near-optimality claim
// is about. Algorithm-free kinds have nothing to pick and count as auto.
func isAuto(sh wse.Shape) bool {
	switch sh.Kind {
	case wse.KindReduce, wse.KindAllReduce, wse.KindAllReduceMidRoot:
		return sh.Alg == wse.Auto
	case wse.KindReduce2D, wse.KindAllReduce2D:
		return sh.Alg2D == wse.Auto2D
	}
	return true
}

// grid is the set-up lattice; one operation is one cell.
type grid struct {
	ks []*kase
}

// gridWarmCells is how many cells set-up runs to warm the one-shot path.
const gridWarmCells = 16

// gridMaxVolume caps a cell's PEs x B. Host time per cell grows with the
// wavelets moved, and a whole pass has to fit several times into one run;
// 2^17 keeps the paper's 512-PE, 1 KB corner and drops the cells above it
// (a full pass of the uncapped lattice takes half a minute).
const gridMaxVolume = 1 << 17

func newGrid(e *env) (instance, error) {
	var shapes []wse.Shape
	for i, sh := range gridShapes() {
		if i%e.prof.gridStride == 0 {
			shapes = append(shapes, sh)
		}
	}
	// Cells run in a strided order, so that any stretch of a pass mixes
	// kinds and sizes instead of ending on all the expensive cells.
	n := len(shapes)
	stride := coprimeNear(n, n/3+1)
	order := make([]wse.Shape, n)
	for i := range order {
		order[i] = shapes[i*stride%n]
	}
	// No set-up pass here: a pass costs seconds, so each cell's first timed
	// run is its set-up pass (see op), and set-up only warms the one-shot
	// path on the first few cells.
	g := &grid{ks: cases(e.rng(1), order...)}
	for seq := 0; seq < gridWarmCells && seq < n; seq++ {
		if _, err := g.op(0, seq); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// coprimeNear returns the smallest k >= from with gcd(k, n) = 1.
func coprimeNear(n, from int) int {
	k := from
	for gcd(k, n) != 1 {
		k++
	}
	return k
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *grid) cases() []*kase { return g.ks }
func (g *grid) close() error   { return nil }

// op runs cell seq of the strided order. A cell's first run is its set-up
// pass: checked PE by PE like every later one, it also fixes the cycle
// count the later ones must reproduce.
func (g *grid) op(_, seq int) (time.Duration, error) {
	k := g.ks[seq%len(g.ks)]
	start := time.Now()
	rep, err := wse.Run(context.Background(), k.sh, k.inputs)
	if err != nil {
		return 0, fmt.Errorf("%v: %w", k, err)
	}
	d := time.Since(start)
	if k.cycles == 0 {
		return d, k.learn(rep, nil)
	}
	if err := checkAll(k.sh, k.want, rep); err != nil {
		return 0, fmt.Errorf("%v: %w", k, err)
	}
	if rep.Cycles != k.cycles {
		return 0, fmt.Errorf("%v: %d cycles, first pass measured %d", k, rep.Cycles, k.cycles)
	}
	return d, nil
}

// kindStats is one kind's row of the conformance table.
type kindStats struct {
	boundRatio  float64 // geomean of cycles / Bound over the kind's auto cells
	modelErrPct float64 // mean over the kind's finite cells
}

// byKind splits the conformance numbers per collective kind.
func byKind(ks []*kase) map[wse.Collective]kindStats {
	groups := make(map[wse.Collective][]*kase)
	for _, k := range ks {
		groups[k.sh.Kind] = append(groups[k.sh.Kind], k)
	}
	out := make(map[wse.Collective]kindStats, len(groups))
	for kind, g := range groups {
		c := conform(g)
		out[kind] = kindStats{boundRatio: c.boundRatioGeomean, modelErrPct: c.modelErrMeanPct}
	}
	return out
}

// vendorSpeedupMax is the paper's headline comparison: the largest ratio
// of the vendor baseline's cycles (Chain, XYChain) to the model-selected
// algorithm's cycles on the same kind, geometry and vector length. Zero
// when the case list holds no such pair.
func vendorSpeedupMax(ks []*kase) float64 {
	type site struct {
		kind       wse.Collective
		p, w, h, b int
	}
	type pair struct{ vendor, auto int64 }
	pairs := make(map[site]pair)
	for _, k := range ks {
		sh := k.sh
		vendor := sh.Alg == wse.Chain
		switch sh.Kind {
		case wse.KindReduce, wse.KindAllReduce, wse.KindAllReduceMidRoot:
		case wse.KindReduce2D, wse.KindAllReduce2D:
			vendor = sh.Alg2D == wse.XYChain
		default:
			continue
		}
		at := site{sh.Kind, sh.P, sh.Width, sh.Height, sh.B}
		pr := pairs[at]
		switch {
		case vendor:
			pr.vendor = k.cycles
		case isAuto(sh):
			pr.auto = k.cycles
		}
		pairs[at] = pr
	}
	best := 0.0
	for _, pr := range pairs {
		if pr.vendor > 0 && pr.auto > 0 {
			best = math.Max(best, float64(pr.vendor)/float64(pr.auto))
		}
	}
	return best
}

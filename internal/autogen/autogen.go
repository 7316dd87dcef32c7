// Package autogen implements the paper's automatically generated Reduce
// (§5.5). A dynamic program finds, for each PE count P and vector length
// B, the pre-order reduction tree minimising the model's runtime estimate
//
//	T_AutoGen(P,B) = min_{D,C} max(C·B, B·e(P,D,C)/(P−1) + P−1) + D·(2T_R+1)
//
// over the energy recursion
//
//	e(P,D,C) = min_{0<i<P} e(i,D,C−1) + e(P−i,D−1,C) + i
//
// (scalar energies; vector energy scales by B, contention by B). The
// recursion mirrors the paper's: the root's last message carries the sum
// of the P−i rightmost PEs, reduced with depth ≤ D−1 by a subtree whose
// root sits i hops from the global root; everything the root already
// holds was reduced with contention ≤ C−1 because one more message is
// still to arrive.
//
// B is the length of one transfer in wavelets, which is all the objective
// knows of it. A caller pricing transfers that carry more than the vector —
// this repository's fabric programs trail each with a control wavelet —
// passes that length (core.TreeFor and core.EndTree do), and the search then
// builds the tree that is best for the transfers the fabric moves.
//
// Building the table. For fixed (D, C) the recursion over P is a min-plus
// convolution: with a[i] = e(i,D,C−1)+i and b[j] = e(j,D−1,C),
//
//	e(P,D,C) = min_{i+j=P, i,j≥1} a[i] + b[j]      (P ≥ 2).
//
// Lemma (convexity). Every row e(·,D,C) is finite on a prefix 1..L and
// convex there (its increments never decrease). Proof by induction over
// (D, C): the base rows e(·,0,C) and e(·,D,0) are finite only at P = 1. A
// convex sequence plus a linear term is convex, so a and b are convex on
// their prefixes; the min-plus convolution of two convex sequences is
// convex on 2..L_a+L_b and is obtained by merging their increments in
// sorted order; and the anchor e(1) = 0 joins on convexly because
// e(2) = a[1]+b[1] = 1 while e(3) ≥ 2 (each of the two senders pays at
// least one hop), so e(3)−e(2) ≥ 1 = e(2)−e(1). ∎
//
// Build therefore walks the two increment sequences once per row — O(P)
// instead of the O(P²) scan over i, O(D·C·P) for the table — and the
// entries are the scan's exactly (integer arithmetic, same minimum).
//
// Reconstructing the arg-min yields the tree itself, which the comm
// package compiles to router configurations and PE programs — the Go
// equivalent of the paper's Python code generator. The merge computes
// values only; reconstruct re-derives each split by scanning i upward and
// taking the first that attains the entry, and that smallest-i tie-break
// is what fixes the generated tree among equal-energy ones.
package autogen

import (
	"math"
	"sync"

	"repro/internal/comm"
)

const inf = int64(1) << 60

// Caps bound the DP state space. Depth beyond DepthCap and contention
// beyond ContentionCap are never profitable within the paper's evaluated
// range (each extra unit of depth costs 2T_R+1 cycles and each unit of
// contention costs B cycles); the exact chain (D = P−1, C = 1), which
// needs the full depth range, is considered as an explicit extra
// candidate. TestFig1Claims verifies the resulting generator stays within
// the paper's 1.4× bound of the runtime lower bound everywhere in
// Figure 1's grid.
type Caps struct {
	DepthCap      int
	ContentionCap int
}

// DefaultCaps cover the paper's evaluation grid (P ≤ 512, B ≤ 4096
// wavelets) with margin.
func DefaultCaps() Caps { return Caps{DepthCap: 160, ContentionCap: 24} }

// Table memoises the scalar energy DP for all P up to maxP.
type Table struct {
	maxP int
	caps Caps
	// e[d][c][p], d ≤ DepthCap, c ≤ ContentionCap, p ≤ maxP.
	e [][][]int64

	// plans remembers what Optimize returned per (p, b, tr). The scan is
	// DepthCap × ContentionCap cells whatever p is, and one compile asks for
	// the same point several times over: the Auto search that ranks the
	// schedules, then the builder, the estimate and the plan's tree metadata
	// of the one it picked.
	mu    sync.Mutex
	plans map[[3]int]Plan
}

// maxPlans bounds Table.plans; a sweep over more points than this starts the
// memo over.
const maxPlans = 1 << 12

var (
	mu     sync.Mutex
	cached *Table
)

// For returns a table covering at least maxP PEs with default caps,
// reusing a previously built one when possible.
func For(maxP int) *Table {
	mu.Lock()
	defer mu.Unlock()
	if cached != nil && cached.maxP >= maxP {
		return cached
	}
	cached = Build(maxP, DefaultCaps())
	return cached
}

// Build constructs the DP table from scratch.
func Build(maxP int, caps Caps) *Table {
	if maxP < 1 {
		maxP = 1
	}
	maxD := caps.DepthCap
	if maxD > maxP-1 {
		maxD = maxP - 1
	}
	if maxD < 1 {
		maxD = 1
	}
	maxC := caps.ContentionCap
	if maxC > maxP-1 {
		maxC = maxP - 1
	}
	if maxC < 1 {
		maxC = 1
	}
	caps.DepthCap, caps.ContentionCap = maxD, maxC
	e := make([][][]int64, maxD+1)
	for d := range e {
		e[d] = make([][]int64, maxC+1)
		for c := range e[d] {
			e[d][c] = make([]int64, maxP+1)
			for p := range e[d][c] {
				switch {
				case p <= 1:
					e[d][c][p] = 0
				default:
					e[d][c][p] = inf
				}
			}
		}
	}
	for d := 1; d <= maxD; d++ {
		for c := 1; c <= maxC; c++ {
			mergeRow(e[d][c], e[d][c-1], e[d-1][c])
		}
	}
	return &Table{maxP: maxP, caps: caps, e: e}
}

// mergeRow fills cur[p] = min_{i+j=p, i,j≥1} (left[i]+i) + down[j] for every
// p ≥ 2, given cur preset to inf there. Both operands are convex on their
// finite prefix (see the package comment), so the minimum moves along the
// two slope sequences in sorted order: each step of p extends whichever of
// i, j has the cheaper next increment, and the pair reached is optimal.
func mergeRow(cur, left, down []int64) {
	if len(cur) < 3 {
		return
	}
	i, j := 1, 1
	cur[2] = left[1] + 1 + down[1]
	for p := 3; p < len(cur); p++ {
		// i+j = p−1 with i,j ≥ 1, so i+1 and j+1 stay below p.
		canI, canJ := left[i+1] < inf, down[j+1] < inf
		switch {
		case canI && (!canJ || left[i+1]-left[i]+1 <= down[j+1]-down[j]):
			i++
		case canJ:
			j++
		default:
			return // both prefixes exhausted: no tree this large fits (d, c)
		}
		cur[p] = left[i] + int64(i) + down[j]
	}
}

// Energy returns e(p, d, c) with d and c clamped into the table.
func (t *Table) Energy(p, d, c int) int64 {
	if p <= 1 {
		return 0
	}
	if d < 1 || c < 1 {
		return inf
	}
	if d > t.caps.DepthCap {
		d = t.caps.DepthCap
	}
	if c > t.caps.ContentionCap {
		c = t.caps.ContentionCap
	}
	return t.e[d][c][p]
}

// Plan is the outcome of the optimisation for one (P, B) point, B being the
// transfer length the search was run for.
type Plan struct {
	P, B    int
	Cycles  float64 // predicted runtime T_AutoGen(P,B)
	Depth   int     // depth budget of the chosen tree (P-1 for pure chain)
	Cont    int     // contention budget (messages into the busiest PE)
	IsChain bool    // the explicit chain candidate won
}

// Optimize evaluates T_AutoGen(p, b) for transfers of b wavelets and ramp
// latency tr and returns the winning plan.
func (t *Table) Optimize(p, b, tr int) Plan {
	if p <= 1 {
		return Plan{P: p, B: b, Cycles: 0, IsChain: true}
	}
	key := [3]int{p, b, tr}
	t.mu.Lock()
	plan, ok := t.plans[key]
	t.mu.Unlock()
	if ok {
		return plan
	}
	plan = t.optimize(p, b, tr)
	t.mu.Lock()
	if t.plans == nil || len(t.plans) >= maxPlans {
		t.plans = make(map[[3]int]Plan)
	}
	t.plans[key] = plan
	t.mu.Unlock()
	return plan
}

// optimize is the scan behind Optimize, for p ≥ 2.
func (t *Table) optimize(p, b, tr int) Plan {
	ramp := float64(2*tr + 1)
	// Explicit chain candidate: C=1, D=P−1, scalar energy P−1. Within the
	// model this is exactly Lemma 5.2's B + (2T_R+2)(P−1).
	best := Plan{
		P: p, B: b,
		Cycles:  math.Max(float64(b), float64(b)+float64(p-1)) + float64(p-1)*ramp,
		Depth:   p - 1,
		Cont:    1,
		IsChain: true,
	}
	maxD := t.caps.DepthCap
	if maxD > p-1 {
		maxD = p - 1
	}
	maxC := t.caps.ContentionCap
	if maxC > p-1 {
		maxC = p - 1
	}
	for d := 1; d <= maxD; d++ {
		for c := 1; c <= maxC; c++ {
			en := t.e[d][c][p]
			if en >= inf {
				continue
			}
			bw := math.Max(float64(c)*float64(b), float64(b)*float64(en)/float64(p-1)+float64(p-1))
			v := bw + float64(d)*ramp
			if v < best.Cycles {
				best = Plan{P: p, B: b, Cycles: v, Depth: d, Cont: c}
			}
		}
	}
	return best
}

// Time returns just the predicted runtime T_AutoGen(p, b).
func (t *Table) Time(p, b, tr int) float64 { return t.Optimize(p, b, tr).Cycles }

// Tree reconstructs the optimal pre-order reduction tree for (p, b): the
// code-generation half of the paper's Auto-Gen pipeline. The returned
// tree feeds comm.BuildTreeReduce directly.
func (t *Table) Tree(p, b, tr int) comm.Tree {
	plan := t.Optimize(p, b, tr)
	if plan.IsChain || p <= 1 {
		if p <= 1 {
			return comm.Single()
		}
		return comm.Chain(p)
	}
	parent := make([]int, p)
	parent[0] = -1
	t.reconstruct(parent, 0, p, plan.Depth, plan.Cont)
	return comm.Tree{Parent: parent}
}

// reconstruct fills parent[] for the block of n PEs rooted at path offset
// base, realising e(n, d, c) by re-deriving the arg-min split: the left i
// PEs form the root's earlier receives (depth d, contention c−1) and the
// right n−i PEs form a subtree rooted at base+i whose root becomes the
// last child of base.
func (t *Table) reconstruct(parent []int, base, n, d, c int) {
	if n <= 1 {
		return
	}
	target := t.Energy(n, d, c)
	for i := 1; i < n; i++ {
		l := t.Energy(i, d, c-1)
		if l >= inf {
			continue
		}
		r := t.Energy(n-i, d-1, c)
		if r >= inf {
			continue
		}
		if l+r+int64(i) == target {
			parent[base+i] = base
			t.reconstruct(parent, base, i, d, c-1)
			t.reconstruct(parent, base+i, n-i, d-1, c)
			return
		}
	}
	// Unreachable when target is finite; fall back to a chain so the
	// result is always a valid tree.
	for v := base + 1; v < base+n; v++ {
		parent[v] = v - 1
	}
}

package autogen

// The middle root's own search. The Eq. 1 DP above optimises a lone Reduce;
// the middle-root AllReduce (comm.BuildAllReduceMidRoot) runs two trees into
// one vertex, which takes every west transfer and then every east one over
// its one ramp. MidRoot searches the pair for that vertex's critical path,
// the recurrence model.CriticalPath and model.MidRootAllReduce evaluate.
//
// Splitting a block's last child off, as reconstruct does, that recurrence
// reads
//
//	begin(block) = max(begin(earlier block) + W, begin(last child) + i + R)
//
// with W = B+Ctl the transfer, R = 2T_R+1 the ramp, i the last child's
// distance, begin(leaf) = 0 and no term at all for an earlier block that is
// the root alone. So the least energy of an n-PE block whose root starts its
// last transfer by cycle t is
//
//	F(n, t) = min_{0<i<n} F(i, t−W) + F(n−i, t−i−R) + i,
//
// and because the middle PE takes the west half first, the east half is the
// same recursion with the whole west half as its base block:
//
//	E(1, t) = F(⌊P/2⌋+1, t),  E(n, t) = min_{0<i<n} E(i, t−W) + F(n−i, t−i−R) + i.
//
// E(⌈P/2⌉, t) is the least energy of a pair whose root starts its last
// transfer by t. MidRoot takes the smallest t whose energy is at most that of
// the two Eq. 1 halves, so the pair it returns is never slower than they are
// and never moves more wavelets.
//
// F(n, ·) and E(n, ·) are non-increasing step functions of t, each kept as
// its staircase: the cycles at which it drops, with the energy it drops to.
// F(n, ·) ends at the chain, n−1 hops from cycle (n−1)(R+1) on. The sum of two
// staircases shifted by W and by i+R steps where either does, and the minimum
// over i keeps the steps no earlier step undercuts.

import (
	"slices"
	"sync"

	"repro/internal/comm"
	"repro/internal/model"
)

// step is one step of a staircase: from cycle t on, the least energy is e,
// attained with the last child of the block's root at offset i (0 for the
// root alone).
type step struct{ t, e, i int32 }

// never is a cycle or an energy beyond any the search meets, and alone the
// begin() of a block that is the root alone, when it is the earlier block of
// a split: it constrains nothing.
const (
	never int32 = 1 << 30
	alone       = -never
)

var (
	leafAsChild = []step{{0, 0, 0}}
	rootAlone   = []step{{alone, 0, 0}}
)

// stairs holds F(n, ·) for every n up to len(rows)−1, for one transfer
// length and ramp latency, cut to the steps a search can use: none after
// cycle tmax, and none whose energy exceeds its block's least (a chain's) by
// more than slack. Every split adds its last child's offset less one to the
// excess of its parts, so a cut step is in no block the search keeps.
type stairs struct {
	w, r        int32
	tmax, slack int32
	mu          sync.Mutex
	rows        [][]step // rows[n], n ≥ 1; rows[1] is the leaf
	best        []step   // scratch of combine
	fen         []int32  // scratch of combine
}

// upTo grows the table to blocks of n PEs.
func (s *stairs) upTo(n int) {
	if len(s.rows) == 0 {
		s.rows = append(s.rows, nil, leafAsChild)
	}
	for m := len(s.rows); m <= n; m++ {
		s.rows = append(s.rows, s.combine(m, int32(m-1), s.asLeft))
	}
}

// asLeft is F(i, ·) where the block is the earlier part of a split.
func (s *stairs) asLeft(i int) []step {
	if i == 1 {
		return rootAlone
	}
	return s.rows[i]
}

// combine returns the staircase of an n-PE block of least energy floor whose
// earlier blocks are left(i) and whose last child roots an F(n−i, ·) subtree
// i hops away.
//
// The splits are walked in order of i, each along the cycles at which one of
// its two parts steps, and a split is left as soon as the steps found so far
// reach its least energy by the cycle it has got to: nothing after that
// point can undercut them.
func (s *stairs) combine(n int, floor int32, left func(i int) []step) []step {
	splits := min(n-1, int(s.slack)+1)
	lo, stop := never, s.tmax
	for i := 1; i <= splits; i++ {
		if a, c := left(i), s.rows[n-i]; len(a) > 0 && len(c) > 0 {
			lo = min(lo, max(a[0].t+s.w, c[0].t+int32(i)+s.r))
		}
	}
	// The split at i = 1 ends at the floor, where nothing after it counts.
	if a, c := left(1), s.rows[n-1]; len(a) > 0 && len(c) > 0 && a[len(a)-1].e+c[len(c)-1].e+1 == floor {
		stop = min(stop, max(a[len(a)-1].t+s.w, c[len(c)-1].t+1+s.r))
	}
	if lo > stop {
		return nil
	}
	width := int(stop - lo + 1)
	best := slices.Grow(s.best[:0], width)[:width] // least energy per cycle
	fen := slices.Grow(s.fen[:0], width)[:width]   // its running minimum, as a Fenwick tree
	for k := range best {
		best[k] = step{lo + int32(k), never, 0}
		fen[k] = never
	}
	for i := 1; i <= splits; i++ {
		a, c := left(i), s.rows[n-i]
		if len(a) == 0 || len(c) == 0 {
			continue
		}
		da, dc := s.w, int32(i)+s.r
		least := a[len(a)-1].e + c[len(c)-1].e + int32(i)
		ia, ic := 0, 0
		for t := max(a[0].t+da, c[0].t+dc); t <= stop; {
			for ia+1 < len(a) && a[ia+1].t+da <= t {
				ia++
			}
			for ic+1 < len(c) && c[ic+1].t+dc <= t {
				ic++
			}
			q := prefixMin(fen, int(t-lo))
			if q <= least {
				break
			}
			if e := a[ia].e + c[ic].e + int32(i); e < q && e-floor <= s.slack {
				best[t-lo] = step{t, e, int32(i)}
				lower(fen, int(t-lo), e)
			}
			next := never
			if ia+1 < len(a) {
				next = a[ia+1].t + da
			}
			if ic+1 < len(c) {
				next = min(next, c[ic+1].t+dc)
			}
			t = next
		}
	}
	s.best, s.fen = best, fen
	var row []step
	lowest := never
	for _, b := range best {
		if b.e < lowest {
			row, lowest = append(row, b), b.e
		}
	}
	return slices.Clip(row)
}

// prefixMin is the least value at positions 0..k of a Fenwick tree of minima.
func prefixMin(fen []int32, k int) int32 {
	m := never
	for k++; k > 0; k -= k & -k {
		m = min(m, fen[k-1])
	}
	return m
}

// lower lowers position k of a Fenwick tree of minima to e.
func lower(fen []int32, k int, e int32) {
	for k++; k <= len(fen); k += k & -k {
		fen[k-1] = min(fen[k-1], e)
	}
}

// at returns the step of row in force at cycle t: the last at or before it.
func at(row []step, t int32) step {
	k, _ := slices.BinarySearchFunc(row, t+1, func(p step, t int32) int { return int(p.t - t) })
	return row[k-1]
}

// tree fills parent for the n-PE block rooted at base that realises F(n, t).
func (s *stairs) tree(parent []int, base, n int, t int32) {
	for n > 1 {
		i := int(at(s.rows[n], t).i)
		parent[base+i] = base
		s.tree(parent, base+i, n-i, t-int32(i)-s.r)
		n, t = i, t-s.w
	}
}

// The memos: one staircase table per (transfer, ramp latency), one pair per
// (P, transfer, ramp latency). A sweep over more points than maxPlans starts
// the pair memo over, and over more transfer lengths than maxStairs the
// tables.
const maxStairs = 1 << 6

var (
	midMu     sync.Mutex
	midStairs map[[2]int]*stairs
	midPairs  map[[3]int][2]comm.Tree
)

// MidRoot returns the reduction trees of the middle-root AllReduce over p ≥ 2
// PEs that the middle PE's critical path prices lowest among the pairs moving
// no more hops than the two Eq. 1 halves, for transfers of w wavelets and
// ramp latency tr: the west half over ⌊p/2⌋+1 PEs and the east half over
// ⌈p/2⌉, each indexed by distance from the middle.
func MidRoot(p, w, tr int) (west, east comm.Tree) {
	key := [3]int{p, w, tr}
	midMu.Lock()
	pair, ok := midPairs[key]
	s := midStairs[[2]int{w, tr}]
	if s == nil {
		if midStairs == nil || len(midStairs) >= maxStairs {
			midStairs = make(map[[2]int]*stairs)
		}
		s = &stairs{w: int32(w), r: int32(2*tr + 1)}
		midStairs[[2]int{w, tr}] = s
	}
	midMu.Unlock()
	if !ok {
		pair = s.midRoot(p)
		midMu.Lock()
		if midPairs == nil || len(midPairs) >= maxPlans {
			midPairs = make(map[[3]int][2]comm.Tree)
		}
		midPairs[key] = pair
		midMu.Unlock()
	}
	return comm.Tree{Parent: slices.Clone(pair[0].Parent)}, comm.Tree{Parent: slices.Clone(pair[1].Parent)}
}

// midRoot runs the east pass over the table and reconstructs the pair.
func (s *stairs) midRoot(p int) [2]comm.Tree {
	nw, ne := p/2+1, p-p/2
	tr := int(s.r-1) / 2
	eq1w, eq1e := For(nw).Tree(nw, int(s.w), tr), For(nw).Tree(ne, int(s.w), tr)
	// The Eq. 1 pair bounds the search: its cycle and its hops. Priced
	// control-free, a transfer is the w wavelets it is given.
	tmax := int32(model.Params{TR: tr}.MidRootBegin(eq1w.Parent, eq1e.Parent, int(s.w)))
	budget := int32(hops(eq1w.Parent) + hops(eq1e.Parent))
	slack := budget - int32(p-1)

	s.mu.Lock()
	defer s.mu.Unlock()
	if tmax > s.tmax || slack > s.slack {
		s.rows, s.tmax, s.slack = nil, max(tmax, s.tmax), max(slack, s.slack)
	}
	s.upTo(nw)
	east := [][]step{nil, s.rows[nw]}
	eastLeft := func(i int) []step { return east[i] }
	for n := 2; n <= ne; n++ {
		east = append(east, s.combine(n, int32(nw+n-2), eastLeft))
	}
	row := east[ne]
	k := slices.IndexFunc(row, func(p step) bool { return p.e <= budget })
	t := row[k].t // the Eq. 1 pair is in the search, so some step is in budget

	westP, eastP := make([]int, nw), make([]int, ne)
	westP[0], eastP[0] = -1, -1
	// The east tree's earlier blocks end in the west half at the cycle the
	// east recursion leaves it.
	for n := ne; n > 1; {
		i := int(at(east[n], t).i)
		eastP[i] = 0
		s.tree(eastP, i, n-i, t-int32(i)-s.r)
		n, t = i, t-s.w
	}
	s.tree(westP, 0, nw, t)
	return [2]comm.Tree{{Parent: westP}, {Parent: eastP}}
}

// hops is a tree's energy per wavelet: the distance every vertex sends over,
// summed.
func hops(parent []int) int {
	h := 0
	for v, u := range parent {
		if u >= 0 {
			h += v - u
		}
	}
	return h
}

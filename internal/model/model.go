// Package model implements the paper's performance model for the
// wafer-scale engine (§3): the spatial cost metrics energy E, distance L,
// depth D, contention C and link count N, the cycle estimate
//
//	T = max(C, E/N + L) + (2·T_R + 1)·D          (Eq. 1)
//
// and the closed-form instantiations for every Broadcast, Reduce and
// AllReduce algorithm analysed in §4–§7 (Lemmas 4.1, 5.1–5.4, 6.1, 7.1).
// All vector lengths B are measured in wavelets (32-bit elements), as in
// Table 1.
//
// # The control wavelet
//
// The paper's lemmas price a transfer as B wavelets. The fabric programs of
// this repository (package comm, after the paper's Figure 3) end every
// transfer — a tree reduce's, a flood's, a scattered or gathered chunk's, a
// ring round's — with one control wavelet, which advances the configuration
// of each router it crosses, so a transfer occupies B + Ctl slots of every
// link and ramp on its way. Ctl is a hardware parameter beside T_R: 0 in
// Default(), which reproduces the published figures, 1 in core.Params, under
// which every run is predicted, every Auto choice made and every Auto-Gen
// tree searched. Every tree-reduce form below reads B + Ctl where the paper
// reads B; a flood (Lemmas 4.1 and 7.1) is over when its farthest PE has
// taken the control behind the data, Ctl cycles after the paper's count, and
// so are the chunked forms (Scatter, Gather, the two ring phases and Lemma
// 6.1), whose last chunk is the one that ends them.
//
// Every form counts its phase up to and including the cycle in which its
// last control is retired. When one phase follows another in the same
// program — Reduce then Broadcast, the rows of an X-Y Reduce then its
// column, Reduce then Scatter — the root's first wavelet of the next phase
// goes down its ramp in that very cycle, so a composition of k phases costs
// the sum of their forms less (k−1)·Ctl (Then). The bounds of §5.6, Lemma
// 7.2 and the flood lemmas as bounds stay control-free: a bound on shorter
// transfers bounds longer ones a fortiori.
//
// # Star and the bound T*
//
// Lemma 5.1 is Eq. 1 on the star: T ≤ max(B(P−1), P·B/2 + P−1) + 2·T_R + 1
// (StarReduceUpper). §5.1 then refines it: the P−1 transfers arrive back to
// back, the root's ramp never idles, so T = B(P−1) + 2·T_R + 1. That form
// drops the energy term, and at B = 1 it lands under the lower bound of
// §5.6 — 516 against T*(512,1) = 518 — because T* keeps E/N + L for every
// tree: min over D of B·E*(P,1,D)/(P−1) + P−1 + D(2·T_R+1). Neither is wrong
// about what it counts; the refined form just counts a fabric that moves no
// control wavelets. With them the stream into the root is (B+Ctl)(P−1)
// wavelets long, its first wavelet is consumed 2·T_R + 2 cycles in (down
// the leaf's ramp, one hop, up the root's, one cycle to store), and the
// root is done when it has consumed the last control:
//
//	T_star = (B+Ctl)(P−1) + 2·T_R + 1 + Ctl.
//
// The simulator runs exactly this at every point tried (1028 cycles at
// P = 512, B = 1; 8693 at B = 16). It never dips under the bound: T* is at
// most its D = 1 candidate B·P/2 + P−1 + 2·T_R+1, and (B+1)(P−1) + 2·T_R + 2
// exceeds that by B(P/2−1) + 1 > 0. T* itself is left as the paper states
// it, in B: a bound on control-free transfers bounds longer ones a
// fortiori, it stays the denominator of Figure 1, and every run measured
// sits above it.
//
// # Eq. 1 vertex by vertex: the critical path
//
// Eq. 1 takes one maximum over a whole pattern: its busiest vertex against
// its average link, plus its deepest chain of ramps. A reduction tree built
// by comm.BuildTreeReduce lets the same three terms be charged where they
// occur. A vertex v receives its children c_1 < … < c_k in index order, one
// transfer of B+Ctl wavelets after the other on its one ramp, and streams
// the last through to its parent. Child i's first wavelet reaches v's
// processor (c_i − v) hops and one ramp (2·T_R+1) after c_i began to send,
// and cannot be taken before the i−1 transfers ahead of it are in. So with
// begin(leaf) = 0,
//
//	begin(v) = max_i [ begin(c_i) + (c_i − v) + 2·T_R + 1 + (k−i)(B+Ctl) ]
//	T_tree   = begin(root) + B + Ctl
//
// (CriticalPath): contention is the (k−i)(B+Ctl) queue at a vertex,
// distance and depth accumulate along the path below it, and the maximum is
// taken per vertex. On the star this is T_star and on the chain Lemma 5.2
// plus Ctl, which is why those two keep their closed forms. It is exact on
// the simulator whenever no two transfers want a link in the same cycle —
// every star, chain, power-of-two binomial and Auto-Gen tree tried (P = 2…300,
// B = 1…256), to the cycle — and a lower estimate otherwise: a sibling's stream that is ready
// early runs ahead into the queues (four deep) of the routers it will cross
// and, on the lower colour, takes their links from the transfers still
// working there. Two-Phase pays 2(S−2) cycles for it at large B (at most
// 8 % over that range), a binomial tree on a few PEs more than a power of
// two up to 17 %, because the root's last children are far leaves.
//
// That accounts for what Eq. 1 misses on these trees, term by term. The
// binomial lemma charges all log2 P ramps on top of max(C, E/N + L); the
// fabric hides the depth of a subtree behind the receives queued ahead of
// it, T = 2·T_R + 2 + Σ_{0<i<log2 P} max(2^i + 2·T_R + 1, B+Ctl) + B + Ctl,
// so Lemma 5.3 over-prices Tree by up to 22 % at B = 4…64 (56 against 46
// cycles at P = 16, B = 8; 632.6 against 595 at P = 512, B = 16). The
// Auto-Gen objective spreads a tree's energy over all P−1 links, where the
// tree queues it at a few vertices: it under-prices its own trees by up to
// 15 % there (67.4 against 79 at P = 16, B = 16; 134.4 against 153 at
// P = 64, B = 16). Two-Phase at P = 64, B = 256 is 589.9 by Lemma 5.4,
// max(2(B+1), E/N + L) + 14 ramps; its critical path is 634 — a leader
// takes in its own group's whole transfer before it starts on the next
// leader's, and the root takes the leader stream in whole, so two transfer
// lengths add to the hops and ramps on the way (2·257 + 7·6 + 6·13) instead
// of being maxed against them — and the fabric's 646 is that
// plus the 12 cycles of link sharing. The searches keep Eq. 1 (the Auto-Gen
// DP and T* optimise over all trees, which only aggregate metrics allow);
// what a search returns is priced, like every other tree, by its path.
//
// # The middle root
//
// The middle-root AllReduce (§6.1's remark; comm.BuildAllReduceMidRoot)
// reduces both halves of the row into the middle PE and floods the result
// out both ways. The halves run concurrently on disjoint colours and links,
// but they share the root, and the root is one vertex: its program takes the
// west tree's root children in index order and the east tree's after them,
// all over one ramp. So it is priced as that vertex. Both halves are trees
// over distances from the middle; below the root each follows the begin()
// recurrence of the critical path on its own, child c of the root puts its
// first wavelet at the root's processor at begin(c) + |c − mid| + 2·T_R + 1,
// and the k_w + k_e transfers queue in program order:
//
//	begin(mid) = max_i [ arrive(c_i) + (k_w + k_e − i)(B+Ctl) ]
//	T_mid      = begin(mid) + B + Ctl  then  T_bcast(⌊P/2⌋+1, B)
//
// (MidRootAllReduce), the flood covering the longer half. A late east half
// delays the root exactly as long as it is late, and a wide tree pays its
// width twice — P−1 queued transfers for Star — so the choice among trees
// differs from a lone Reduce's. The form inherits the critical path's
// exactness: to the cycle wherever no two transfers share a link, a lower
// estimate by the shared cycles elsewhere (Two-Phase and binomial halves).
//
// # The centre root
//
// The centre-rooted 2D AllReduce (comm.BuildAllReduceCentre) places the root
// of both X-Y phases in the middle: every row reduces into its middle PE
// (⌊W/2⌋, y) over the halves the middle root would run on a row of W, the
// middle column into (⌊W/2⌋, ⌊H/2⌋) over the halves for a column of H, on
// colours of its own, and the result floods out from the centre. The rows are
// identical and share no link, so every PE of the middle column ends its row
// in the same cycle and the column phase starts on all of them at once. Each
// reduce is the middle root's without its flood (MidRootReduce), and the
// flood is Lemma 7.1 over the largest quadrant:
//
//	T_centre = T_row(W)  then  T_col(H)  then  T_bcast2D(⌊H/2⌋+1, ⌊W/2⌋+1, B)
//
// It halves the distance of every phase, and every root takes two streams
// per phase, 2(B+Ctl) wavelets where the corner's takes one. So it wins where
// distance dominates — 103 cycles against X-Y's 165 at 32×32 and one
// wavelet — and is the bandwidth-inefficient schedule at 1 KB (1512 against
// 1208). It runs at this estimate to the cycle on every grid and vector
// length tried.
package model

import (
	"math"
	"slices"
)

// Params hold the hardware parameters of the model. The paper's only free
// parameter is the ramp latency T_R, which it determines to be 2 on the
// WSE-2 (any other choice "would lead to significantly worse predictions",
// §8.7). Ctl is the number of control wavelets that trail every transfer of
// a tree reduction to advance the router configurations behind it (see "The
// control wavelet" in the package comment): 0 prices the paper's idealised
// transfer of B wavelets, 1 the transfer comm.BuildTreeReduce emits.
type Params struct {
	TR  int
	Ctl int
}

// Default returns the WSE-2 parameterisation of the paper's analytical
// artifact (Figures 1, 8, 10): T_R = 2 and control-free transfers. Anything
// that predicts a run of this repository's fabric programs takes its
// parameters from core.Params instead, which sets Ctl to the builder's 1.
func Default() Params { return Params{TR: 2} }

// transfer is the number of link slots one B-wavelet transfer occupies.
func (pr Params) transfer(b int) float64 { return float64(b + pr.Ctl) }

// ramp returns the per-depth-unit cost 2·T_R+1: a wavelet pays T_R down
// and up the ramp plus one cycle to store the received element.
func (pr Params) ramp() float64 { return float64(2*pr.TR + 1) }

// Then is the cost of phases that follow one another in one program: their
// sum, less the Ctl cycles by which each hand-off overlaps (the next phase
// starts in the cycle that retires the last control of the one before; see
// "The control wavelet" in the package comment). A phase of zero cycles — a
// reduce over one PE — is no phase and hands nothing off.
func (pr Params) Then(phases ...float64) float64 {
	t, n := 0.0, 0
	for _, ph := range phases {
		if ph > 0 {
			t += ph
			n++
		}
	}
	if n > 1 {
		t -= float64((n - 1) * pr.Ctl)
	}
	return t
}

// Cost is a set of spatial metrics for a communication pattern.
type Cost struct {
	E float64 // energy: total wavelet hops
	L float64 // distance: longest hop count of any wavelet
	D float64 // depth: longest chain of dependent PE operations
	C float64 // contention: wavelets sent/received by the busiest PE
	N float64 // links used
}

// Time synthesises the metrics into the cycle estimate of Eq. 1.
func (pr Params) Time(c Cost) float64 {
	bw := c.C
	if c.N > 0 {
		if v := c.E/c.N + c.L; v > bw {
			bw = v
		}
	}
	return bw + pr.ramp()*c.D
}

// log2 returns log2(p) for the round-count of tree-structured algorithms;
// the paper states formulas for powers of two, and fractional values
// interpolate smoothly in between.
func log2(p int) float64 { return math.Log2(float64(p)) }

// Message is the cost of sending a B-wavelet vector across P consecutive
// PEs (§4.1): T = B + P + 2·T_R. This is optimal for a single message.
func (pr Params) Message(p, b int) float64 {
	return float64(b) + float64(p) + float64(2*pr.TR)
}

// Broadcast1D is the flooding broadcast of §4.2. Multicast makes it cost
// exactly a message (Lemma 4.1), and the control behind the data Ctl more.
func (pr Params) Broadcast1D(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	return pr.Message(p, b) + float64(pr.Ctl)
}

// StarReduce is the refined Star Reduce estimate of §5.1: the direct
// pattern pipelines perfectly, so the root's ramp is busy from the first
// wavelet to the last and T = (B+Ctl)(P-1) + 2·T_R + 1 + Ctl — the paper's
// B(P-1) + 2·T_R + 1 for control-free transfers (derivation and the
// relation to T* in the package comment).
func (pr Params) StarReduce(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	return pr.transfer(b)*float64(p-1) + float64(2*pr.TR+1+pr.Ctl)
}

// StarReduceUpper is Lemma 5.1's un-refined Star Reduce bound,
// T ≤ max(B(P-1), P·B/2 + P-1) + 2·T_R + 1, which keeps the energy term.
// Figure 1a's optimality ratios are computed against this form (at B=1 it
// gives the paper's 1.5× for 512 PEs, where the refined pipeline estimate
// would dip below the depth-free lower bound).
func (pr Params) StarReduceUpper(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	cont := pr.transfer(b) * float64(p-1)
	energy := float64(p)*pr.transfer(b)/2 + float64(p-1)
	return math.Max(cont, energy) + float64(2*pr.TR) + 1
}

// ChainReduce is Lemma 5.2: T = B + Ctl + (2·T_R+2)(P-1) — the one transfer
// in flight, and a hop and a ramp per PE. This is the vendor's pattern (used
// by the SDK collectives library and the matrix-multiply kernel) and is
// optimal for B >> T_R·P.
func (pr Params) ChainReduce(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	return pr.transfer(b) + float64(2*pr.TR+2)*float64(p-1)
}

// TreeReduce is Lemma 5.3 for the binomial tree:
// T = max(B·log2 P, B·P·log2(P)/(2(P-1)) + P-1) + (2·T_R+1)·log2 P.
func (pr Params) TreeReduce(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	lg := log2(p)
	cont := pr.transfer(b) * lg
	energy := pr.transfer(b)*float64(p)*lg/(2*float64(p-1)) + float64(p-1)
	return math.Max(cont, energy) + pr.ramp()*lg
}

// TwoPhaseReduce is Lemma 5.4 with the paper's group size S = ceil(√P).
func (pr Params) TwoPhaseReduce(p, b int) float64 {
	return pr.TwoPhaseReduceS(p, b, 0)
}

// TwoPhaseReduceS is the Two-Phase Reduce with an explicit group size s
// (s <= 0 selects ceil(√P)); exposing s supports the group-size ablation.
// Phase 1 runs ⌈P/S⌉ chain reductions of S PEs each; phase 2 chains the
// ⌈P/S⌉ group leaders. Contention is 2B (leaders receive two streams),
// energy (S-1)·B·⌈P/S⌉ + S·B·(⌈P/S⌉-1) over P-1 links, depth
// (S-1) + ⌈P/S⌉ - 1.
func (pr Params) TwoPhaseReduceS(p, b, s int) float64 {
	if p <= 1 {
		return 0
	}
	if s <= 0 {
		s = int(math.Ceil(math.Sqrt(float64(p))))
	}
	if s < 1 {
		s = 1
	}
	groups := (p + s - 1) / s
	depth := float64(s-1) + float64(groups-1)
	w := pr.transfer(b)
	energy := float64(s-1)*w*float64(groups) + float64(s)*w*float64(groups-1)
	cont := 2 * w
	if groups == 1 || s == 1 {
		cont = w
	}
	bw := math.Max(cont, energy/float64(p-1)+float64(p-1))
	return bw + pr.ramp()*depth
}

// RingAllReduce is Lemma 6.1: reduce-scatter plus allgather over a ring
// mapped onto the row (both the simple and the distance-preserving mapping
// of Figure 7 yield the same model cost):
// T = 2(P-1)·B/P + 4P - 6 + 2(P-1)(2·T_R+1) + Ctl,
// its two phases (ReduceScatter, AllGather) one after the other. The paper
// evaluates ring analytically only and finds it the best choice for few PEs
// and long vectors (§8.6); comm.BuildRingAllReduce runs it, the form is the
// simulator's count to the cycle on every cell tried, and Auto deploys it
// where it wins — 16 PEs from 4 KB up.
func (pr Params) RingAllReduce(p, b int) float64 {
	return pr.Then(pr.ReduceScatter(p, b), pr.AllGather(p, b))
}

// ButterflyAllReduce models the recursive-doubling butterfly (§2.1) on the
// mesh: log2 P rounds in which every PE exchanges its full vector with a
// partner at doubling distance. Per round r the exchange energy is
// P·B·2^(r-1) over the 2(P-1) bidirectional row links, so the energy term
// alone is P·B/2 — the pattern ignores multicast and drowns the fabric,
// which is why Figure 11c shows it predicted far above every alternative.
func (pr Params) ButterflyAllReduce(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	lg := log2(p)
	cont := float64(b) * lg
	energy := float64(p)*float64(b)/2 + float64(p-1)
	return math.Max(cont, energy) + pr.ramp()*lg
}

// CriticalPath is Eq. 1 evaluated vertex by vertex on one reduction tree
// instead of once on its aggregate metrics (derivation in the package
// comment). parent is a pre-order tree over a row of PEs — parent[0] = -1,
// every other vertex's parent has a lower index — whose vertices receive
// their children in index order and stream the last one through, the
// discipline of comm.BuildTreeReduce. With begin(leaf) = 0,
//
//	begin(v) = max_i [ begin(c_i) + (c_i − v) + 2·T_R + 1 + (k−i)·(B+Ctl) ]
//
// over v's children c_1 < … < c_k is the cycle v starts on its last
// transfer: child i's first wavelet arrives one distance and one ramp after
// the child started, and the k−i transfers behind it queue on v's ramp. The
// reduce ends when the root has consumed its last transfer, at
// begin(0) + B + Ctl.
func (pr Params) CriticalPath(parent []int, b int) float64 {
	if len(parent) <= 1 {
		return 0
	}
	return pr.queued(pr.rootArrivals(parent, b), b) + pr.transfer(b)
}

// rootArrivals runs the begin() recurrence over every vertex below the root
// and returns, for the root's children in index order, the cycle each one's
// first wavelet reaches the root's processor.
func (pr Params) rootArrivals(parent []int, b int) []float64 {
	w := pr.transfer(b)
	begin := make([]float64, len(parent))
	later := make([]int, len(parent)) // children of v already folded: the later siblings
	var arrivals []float64
	for c := len(parent) - 1; c > 0; c-- {
		v := parent[c]
		arrive := begin[c] + float64(c-v) + pr.ramp()
		if v == 0 {
			arrivals = append(arrivals, arrive)
			continue
		}
		begin[v] = math.Max(begin[v], arrive+float64(later[v])*w)
		later[v]++
	}
	slices.Reverse(arrivals)
	return arrivals
}

// queued is begin() of a vertex whose transfers arrive at the given cycles
// and are taken in that order: each waits for the ones behind it in the
// program to go in after it, max_i [ arrive_i + (k−i)·(B+Ctl) ].
func (pr Params) queued(arrivals []float64, b int) float64 {
	begin := 0.0
	for i, arrive := range arrivals {
		begin = math.Max(begin, arrive+float64(len(arrivals)-1-i)*pr.transfer(b))
	}
	return begin
}

// ReduceNames lists the fixed 1D Reduce patterns in the order the paper
// presents them.
var ReduceNames = []string{"star", "chain", "tree", "twophase"}

// Reduce1D dispatches the closed-form Reduce estimate by pattern name.
func (pr Params) Reduce1D(pattern string, p, b int) float64 {
	switch pattern {
	case "star":
		return pr.StarReduce(p, b)
	case "chain":
		return pr.ChainReduce(p, b)
	case "tree":
		return pr.TreeReduce(p, b)
	case "twophase":
		return pr.TwoPhaseReduce(p, b)
	}
	return math.Inf(1)
}

// AllReduce1D is the Reduce-then-Broadcast AllReduce of §6.1 for a fixed
// reduce pattern: T = T_reduce then T_bcast.
func (pr Params) AllReduce1D(pattern string, p, b int) float64 {
	return pr.Then(pr.Reduce1D(pattern, p, b), pr.Broadcast1D(p, b))
}

package model

// Model estimates for the extension collectives this reproduction adds on
// top of the paper's set: Scatter, Gather, ReduceScatter, the four
// AllGather schedules and the middle-root AllReduce (the root-placement
// optimisation §6.1 attributes to the stencil implementations of Jacquelin
// et al. [25]). All follow Eq. 1 with the metrics read off the compiled
// patterns; the gather-flood is priced turn by turn, the streams as the
// longest path through their ops.

import "math"

// Scatter estimates delivering per-PE chunks from the row root: the root
// serialises every chunk but its own, B(P-1)/P wavelets (contention), the
// farthest chunk travels P-1 hops, and the last chunk ends with its control.
func (pr Params) Scatter(p, b int) float64 {
	return pr.gatherInto(p, b, 0)
}

// Gather is Scatter's mirror: root contention B(P-1)/P, distance P-1.
func (pr Params) Gather(p, b int) float64 {
	return pr.Scatter(p, b)
}

// gatherInto is a Gather of the balanced chunks into PE root, or a Scatter
// from it: the root's ramp takes every chunk but its own — B(P-1)/P where P
// divides B (or B < P, where no program runs), else B less the root's chunk,
// ⌈B/P⌉ for the first B mod P PEs and ⌊B/P⌋ for the others.
func (pr Params) gatherInto(p, b, root int) float64 {
	if p <= 1 {
		return 0
	}
	cont := float64(b) * float64(p-1) / float64(p)
	if b > p && b%p != 0 {
		own := b / p
		if root < b%p {
			own++
		}
		cont = float64(b - own)
	}
	return cont + float64(p-1) + float64(2*pr.TR) + 1 + float64(pr.Ctl)
}

// ReduceScatter estimates the first ring phase: P-1 rounds, each moving
// a B/P chunk one logical hop with (2T_R+1)-cycle ramp handling per
// dependent round, and the last round's control. Where P does not divide B
// the first B mod P chunks are one element longer, and the partial sum of
// each travels through all P-1 rounds, so every round takes ⌈B/P⌉.
func (pr Params) ReduceScatter(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	return pr.ringPhase(p, b, b/p+1)
}

// RingStream prices the streamed ring reduce-scatter
// (comm.BuildReduceScatterStreamed), or +Inf where it does not run: the
// simple ring's edges and chunks, each PE sending its first chunk and then
// forwarding every partial sum the cycle it arrives. Ring position k's op j
// handles chunk k−j−1 (mod P; s_c elements, the first B mod P one longer).
// Its first wavelet is consumed at a(k,j), where
//
//	a(k,j) = max(a(k,j−1) + s + Ctl + 1, a(k−1,j−1) + 2·T_R + 2 + x_k) + A
//
// the later of the PE's own previous op — s data and Ctl controls taken,
// one cycle to push the last control — and the chunk's first wavelet, one
// cycle through the upstream PE, one hop and a ramp each way; x_0 = P − 2 is
// the wrap-around edge's extra hops, and A the task activation every receive
// waits out. Each term is one cycle shorter from the opening send, and the
// reduce-scatter ends with the last PE's last chunk, s + Ctl + 1 after it
// began. So the count is the longest path through the grid of ops: v steps
// along a PE finish v + 1 consecutive chunks, the P − 1 − v steps from PE to
// PE cost 2·T_R + 2 each, and, as a diagonal step's chunk is fixed, one of
// them crosses the wrap-around edge wherever v ≤ P − 2, along a run of
// chunks that can start at chunk 0 (the longer ones). That is O(P)
// candidates (RingStreamDone), and the simulator's count to the cycle
// wherever no PE waits on its queues.
//
// None does where a hop's queues hold what the ring parks on them, and
// nowhere else does it run. A PE sends its next chunk while its neighbour is
// still taking the last one, so an edge holds up to s + Ctl + 2 wavelets, a
// round; the three queues of one hop (the sender's ramp, the link, the
// receiver's inbox) hold 3·QueueCap. And a stream moves a wavelet a cycle
// only if the ramp's queue outlasts its latency, QueueCap ≥ T_R + 1. Past
// either limit the ring stalls on its queues and, with long chunks,
// deadlocks: every PE sends before it receives.
func (pr Params) RingStream(p, b int) float64 {
	long, _ := pr.RingStreamDone(p, b)
	return long
}

// RingStreamDone returns when the PEs of the streamed ring reduce-scatter are
// through it: long for those of the B mod P longer chunks, short for the
// others, and both the whole phase (RingStream) where P divides B. A path
// through the ops that ends on PE k finishes chunks k, k+1, …, k+v and crosses
// the wrap-around edge only if k + v ≤ P − 2. PE 0 has the longer chunks
// first and the crossing, so it is the last to finish. A PE of a short chunk,
// k ≥ B mod P, crosses if it can (k = B mod P, for v ≤ P − 2 − B mod P) or
// else, from PE P − 1, finishes the first v chunks after its own, min(v, B mod
// P) of them longer. Both are +Inf where the ring does not run (RingStream).
func (pr Params) RingStreamDone(p, b int) (long, short float64) {
	if p <= 1 {
		return 0, 0
	}
	q, r := b/p, b%p
	if b < p || pr.QueueCap < pr.TR+1 || q+min(r, 1)+pr.Ctl+2 > 3*pr.QueueCap {
		return math.Inf(1), math.Inf(1)
	}
	hop := float64(2*pr.TR + 2)
	// path is the longest path that takes v+1 chunks, extra of them longer,
	// crossing the wrap-around edge or not.
	path := func(v, extra int, crosses bool) float64 {
		t := float64((v+1)*(q+pr.Ctl+1)+extra) + float64(p-1-v)*hop - 1
		if crosses {
			t += float64(p - 2)
		}
		return t
	}
	for v := 0; v < p; v++ {
		long = max(long, path(v, min(v+1, r), v <= p-2))
		short = max(short, path(v, min(v, r), false), path(v, 0, v <= p-2-r))
	}
	if r == 0 {
		short = long
	}
	// Every path waits out the activation of P − 1 receives.
	act := float64((p - 1) * pr.Activation)
	return long + act, short + act
}

// AllGather estimates the second ring phase, which has the same shape. A
// lone longer chunk (B mod P = 1) holds each PE up once, one cycle; two or
// more hold up every round, as in the reduce-scatter.
func (pr Params) AllGather(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	if b > p && b%p == 1 {
		return pr.ringPhase(p, b, b/p) + 1
	}
	return pr.ringPhase(p, b, b/p+1)
}

// ringPhase is a ring phase of P-1 rounds, each paced by a chunk of `chunk`
// elements where P does not divide B, and by Lemma 6.1's B/P where it does —
// or where B < P, where no program runs.
func (pr Params) ringPhase(p, b, chunk int) float64 {
	rounds := float64(p-1) * float64(b) / float64(p)
	if b > p && b%p != 0 {
		rounds = float64((p - 1) * chunk)
	}
	return rounds + 2*float64(p) - 3 + float64(p-1)*pr.ramp() + float64(pr.Ctl)
}

// MidRootAllGather estimates the AllGather through the middle PE
// (comm.BuildAllGatherMidRoot): both halves gather into PE ⌊P/2⌋, which
// floods the assembled vector over the longer half, the west one of ⌊P/2⌋+1
// PEs. The middle PE takes every other chunk over its one ramp, back to back,
// as the end PE of a Gather does — splitting the row shortens only the way of
// chunks that queue anyway — so the gather costs a Gather's cycles and the
// flood half a Broadcast's distance.
func (pr Params) MidRootAllGather(p, b int) float64 {
	return pr.Then(pr.gatherInto(p, b, p/2), pr.Broadcast1D(p/2+1, b))
}

// StarStream prices the streamed middle-root AllGather
// (comm.BuildAllGatherStreamed), or +Inf where it does not run. Let w_j =
// s_j + Ctl be the wavelets of chunk j, and o_0 … o_{P−1} the order the middle
// PE floods the chunks in: its own, the west half's nearest first, then the
// east half's. The middle PE's op k floods o_{k−1} while it takes o_k, and
// the gather keeps o_k waiting from op 2 on, so op k ends with the longer of
// the two; op 1 waits 2·T_R + 1 cycles for o_1. So the middle PE starts
// flooding o_j, j ≥ 1, at
//
//	M_1 = 2·T_R + 1 + w(o_1),  M_j = M_{j−1} + max(w(o_{j−1}), w(o_j)).
//
// Another PE d hops out can take o_j from M_j + 2·T_R + d on. It takes o_0
// in the op that sends its own chunk, a full-duplex op no activation delays,
// which is through before o_1 can arrive, and every later chunk in a receive
// of its own: A + w cycles once o_j is there, where A is the task activation.
// So it consumes its last control at the latest M_j + 2·T_R + d − 1 + S_j,
// where S_j = Σ_{k ≥ j} (A + w(o_k)): o_j reaching it, then every chunk from
// o_j on back to back. The farthest PE, ⌊P/2⌋ hops out, is the last, and the
// run ends two cycles after, as a receive does. Balanced, that is B + P·Ctl +
// ⌊P/2⌋ + 2(2·T_R + 1) + (P − 1)·A.
//
// It runs only where a sender's chunk and control fit the queues of its ramp
// and its router, ⌈B/P⌉ + Ctl ≤ 2·QueueCap: a sender takes no flood chunk
// but the first until its send is through, and past that it can wait on a
// flood that waits on it (from a sender three hops out, six PEs). And, as
// for the streamed ring, the ramp's queue must outlast its latency,
// QueueCap ≥ T_R + 1, or a stream does not move a wavelet a cycle.
func (pr Params) StarStream(p, b int) float64 {
	if p < 2 || b < p || pr.QueueCap < pr.TR+1 || (b+p-1)/p+pr.Ctl > 2*pr.QueueCap {
		return math.Inf(1)
	}
	mid := p / 2
	// w(k) is w(o_k): o_k is mid − k up to k = mid, then k.
	w := func(k int) int {
		if k <= mid {
			k = mid - k
		}
		if k < b%p {
			return b/p + 1 + pr.Ctl
		}
		return b/p + pr.Ctl
	}
	s := 0 // S_j, from S_1
	for k := 1; k < p; k++ {
		s += pr.Activation + w(k)
	}
	m := 2*pr.TR + 1 + w(1) // M_j, from M_1
	reach := m + s          // the latest M_j + S_j
	for j := 2; j < p; j++ {
		m += max(w(j-1), w(j))
		s -= pr.Activation + w(j-1)
		reach = max(reach, m+s)
	}
	return float64(reach + 2*pr.TR + mid + 1)
}

// GatherFlood prices the gather-flood AllGather (comm.BuildGatherFlood) turn
// by turn. Turn v floods chunk v, s_v of the balanced chunks, from PE v: its
// w_v = s_v + Ctl wavelets leave PE v's router in consecutive cycles from R_v
// on, where R_0 = T_R (PE 0's send down its ramp) and
//
//	R_{v+1} = max(R_v + w_v + 1, R_{v−1} + w_{v−1} + 1 + 2·T_R + 1)
//
// is the later of two events. Turn v's control has crossed PE v+1's router,
// one hop after it left PE v's at R_v + w_v − 1, and moved its configuration
// on to the ramp. And PE v+1 has its chunk on the ramp: it posts it the cycle
// after it consumed chunk v−1, whose control left PE v−1's router at
// R_{v−1} + w_{v−1} − 1 and came two hops and T_R up, and the chunk takes T_R
// down (PE 1 posts at once, so turn 1 waits for turn 0 alone). The turns
// share one color and each router passes them in order, so none waits on
// another's wire and every PE takes each chunk as it arrives. The last turn is
// Lemma 4.1's flood of its chunk over the whole row, started R_{P−1} − T_R
// late. The form is the simulator's count to the cycle wherever the queues
// keep a stream moving, balanced chunks or not — under the default queue
// depth, at T_R ≤ 3.
func (pr Params) GatherFlood(p, b int) float64 {
	if p <= 1 {
		return 0
	}
	w := func(v int) float64 {
		if v < b%p {
			return pr.transfer(b/p + 1)
		}
		return pr.transfer(b / p)
	}
	before, r := math.Inf(-1), float64(pr.TR) // R_{v−1} + w_{v−1}, R_v
	for v := 0; v < p-1; v++ {
		wv := w(v)
		before, r = r+wv, math.Max(r+wv+1, before+1+pr.ramp())
	}
	// The last chunk is never one of the longer ones.
	return r - float64(pr.TR) + pr.Broadcast1D(p, b/p)
}

// MidRootAllReduce prices the middle-root AllReduce as the one path it is
// (derivation in the package comment). west and east are the reduction trees
// of the two halves, each rooted at the middle PE and indexed by distance
// from it — ⌊P/2⌋+1 and ⌈P/2⌉ vertices, either possibly the single root. The
// middle PE takes the west tree's root children and then the east tree's
// over one ramp, each arriving as the critical path of its own half has it —
// a comb without a column (CombReduce) — and floods the result over the
// longer half.
func (pr Params) MidRootAllReduce(west, east []int, b int) float64 {
	return pr.Then(pr.CombReduce([][]int{west, east}, nil, b), pr.Broadcast1D(max(len(west), len(east)), b))
}

// MidRootBegin is begin(mid) of the middle-root AllReduce over west and east:
// the cycle the middle PE starts on its last transfer, the one term of
// MidRootAllReduce the choice of trees moves.
func (pr Params) MidRootBegin(west, east []int, b int) float64 {
	return pr.queued(append(pr.rootArrivals(west, b), pr.rootArrivals(east, b)...), b)
}

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
// candidates for each PE (RingStreamDone), and the simulator's count to the
// cycle wherever no PE waits on its queues.
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
	return pr.ringStreamDone(p, b, 0)
}

// RingStreamDone returns when each PE of the streamed ring reduce-scatter is
// through it, every one +Inf where the ring does not run (RingStream). A path
// through the ops that ends on PE k finishes chunks k, k+1, …, k+v (mod P),
// those under B mod P longer, and crosses the wrap-around edge only if
// k + v ≤ P − 2. PE 0 has the longer chunks first and the crossing, so it is
// the last to finish.
func (pr Params) RingStreamDone(p, b int) []float64 {
	done := make([]float64, p)
	for k := range done {
		done[k] = pr.ringStreamDone(p, b, k)
	}
	return done
}

// ringStreamDone is RingStreamDone's PE k: the longest of its P paths.
func (pr Params) ringStreamDone(p, b, k int) float64 {
	if p <= 1 {
		return 0
	}
	q, r := b/p, b%p
	if b < p || pr.QueueCap < pr.TR+1 || q+min(r, 1)+pr.Ctl+2 > 3*pr.QueueCap {
		return math.Inf(1)
	}
	hop := float64(2*pr.TR + 2)
	done, extra := 0.0, 0 // extra counts the longer chunks among k … k+v
	for v := 0; v < p; v++ {
		if (k+v)%p < r {
			extra++
		}
		t := float64((v+1)*(q+pr.Ctl+1)+extra) + float64(p-1-v)*hop - 1
		if k+v <= p-2 {
			t += float64(p - 2)
		}
		done = max(done, t)
	}
	// Every path waits out the activation of P − 1 receives.
	return done + float64((p-1)*pr.Activation)
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
// (comm.BuildAllGatherStreamed) whose PE v starts at cycle release[v] — one
// cycle per PE, or all at 0 where release is nil — or +Inf where it does not
// run. It is the cycle of every event of the flood's calendar, wavelet by
// wavelet — the middle PE pushing wavelet n, every router passing it on and
// every PE taking it — each the latest of the events it waits on ("The
// streamed middle root" in the package comment), in O(P·(B + P·Ctl)). The
// queues are rings of the last QueueCap + 1 wavelets' cycles: wavelet n's
// slot is n mod (QueueCap + 1), and the slot after it holds wavelet n −
// QueueCap, whose exit frees the queue place wavelet n takes.
//
// It runs only where a sender's chunk and control fit the queues of its ramp
// and its router, ⌈B/P⌉ + Ctl ≤ 2·QueueCap: a sender takes no flood chunk
// but the first until its send is through, and past that it can wait on a
// flood that waits on it (from a sender three hops out, six PEs). And, as
// for the streamed ring, the ramp's queue must outlast its latency,
// QueueCap ≥ T_R + 1, or a stream does not move a wavelet a cycle.
func (pr Params) StarStream(p, b int, release []float64) float64 {
	if p < 2 || b < p || pr.QueueCap < pr.TR+1 || (b+p-1)/p+pr.Ctl > 2*pr.QueueCap {
		return math.Inf(1)
	}
	if release == nil {
		release = make([]float64, p)
	}
	mid := p / 2
	flood, w := pr.starFlood(p, b)
	tr, act := float64(pr.TR), float64(pr.Activation)
	slots := pr.QueueCap + 1
	ring := func() []float64 {
		r := make([]float64, slots)
		for i := range r {
			r[i] = math.Inf(-1)
		}
		return r
	}
	// Side 0 is the west arm, side 1 the east; PE x hops out on side s is
	// row PE at(s, x), its router's cycles pass[s][x] and its takes take[s][x].
	arm := [2]int{mid, p - 1 - mid}
	at := func(s, x int) int { return mid + (2*s-1)*x }
	var pass, take [2][][]float64
	for s := range arm {
		for x := 0; x <= arm[s]; x++ {
			pass[s], take[s] = append(pass[s], ring()), append(take[s], ring())
		}
	}
	push, root := ring(), ring() // the middle PE's pushes and its router
	m := release[mid]            // M_j, when the middle PE starts flooding o_j
	n := 0
	for j := range flood {
		if j > 0 {
			// The op that floods o_j starts once the one before it has
			// pushed o_{j−1} and taken o_j, whose first wavelet the gather
			// brings 2·T_R + d after its PE, d hops out, starts.
			v := flood[j]
			m = max(push[(n-1)%slots]+1, max(m, release[v]+2*tr+float64(max(v-mid, mid-v)))+w[j])
		}
		for i := 0; i < int(w[j]); i, n = i+1, n+1 {
			now, prev, freed := n%slots, (n+slots-1)%slots, (n+1)%slots
			t := max(push[prev]+1, root[freed]+1)
			if i == 0 {
				t = max(t, m)
			}
			push[now] = t
			t = max(t+tr, root[prev]+1)
			for s := range arm {
				if arm[s] > 0 {
					t = max(t, pass[s][1][freed]+1)
				}
			}
			root[now] = t
			for s := range arm {
				up := root[now]
				for x := 1; x <= arm[s]; x++ {
					h := max(up+1, pass[s][x][prev]+1, take[s][x][freed]+1)
					if x < arm[s] {
						h = max(h, pass[s][x+1][freed]+1)
					}
					pass[s][x][now], up = h, h
					c := max(take[s][x][prev]+1, h+tr)
					switch {
					case n == 0:
						c = max(release[at(s, x)], h+tr)
					case i == 0 && j == 1:
						// The op that sends the PE's own chunk and takes
						// chunk 0 ends with the later of the two.
						c = max(c, release[at(s, x)]+pr.starChunk(p, b, at(s, x))) + act
					case i == 0:
						c += act
					}
					take[s][x][now] = c
				}
			}
		}
	}
	last := (n - 1) % slots
	end := push[last] + 1
	for s := range arm {
		for x := 1; x <= arm[s]; x++ {
			end = max(end, take[s][x][last]+1)
		}
	}
	return end + 1
}

// starFlood returns the chunks in the order the middle PE floods them, o_0 …
// o_{P−1}: its own, the west half's nearest first, then the east half's —
// each chunk's PE on the row and its wavelets, s_j + Ctl.
func (pr Params) starFlood(p, b int) (pe []int, w []float64) {
	mid := p / 2
	pe, w = make([]int, p), make([]float64, p)
	for k := range pe {
		v := k
		if k <= mid {
			v = mid - k
		}
		pe[k], w[k] = v, pr.starChunk(p, b, v)
	}
	return pe, w
}

// starChunk is the wavelets of row PE v's chunk and its control.
func (pr Params) starChunk(p, b, v int) float64 {
	if v < b%p {
		return float64(b/p + 1 + pr.Ctl)
	}
	return float64(b/p + pr.Ctl)
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

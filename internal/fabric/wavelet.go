// Package fabric implements a cycle-level simulator of the Cerebras
// wafer-scale engine's communication fabric: a 2D mesh of routers with
// per-color routing configurations, hardware multicast, bounded link
// bandwidth (one 32-bit wavelet per link direction per cycle), small input
// queues with backpressure, and a ramp latency T_R between each processor
// and its router.
//
// The simulator substitutes for the CS-2 hardware used in the paper's
// evaluation. The paper itself notes (§1.4) that PE programs "exhibit
// deterministic, state-machine like behavior which can be modeled with a
// cycle-accurate fabric simulator"; this package is that simulator, built
// from the architectural description in §2.2 of the paper.
package fabric

import (
	"math"

	"repro/internal/mesh"
)

// Wavelet is a single 32-bit fabric packet. Reduction payloads are float32
// values (the paper's experiments use 32-bit floats). A control wavelet
// (Ctl) carries no payload; every router that routes it advances its active
// configuration for the wavelet's color, mirroring the paper's control
// wavelets and the "last element triggers a change in routing
// configuration" mechanism of Figure 3.
type Wavelet struct {
	Val   float32
	Color mesh.Color
	Ctl   bool
}

// waveEntry is a wavelet in flight together with the first cycle at which
// it may be acted upon (used to model the one-cycle link traversal and the
// T_R ramp latency).
type waveEntry struct {
	w       Wavelet
	readyAt int64
}

// waveQueue is a bounded single-producer single-consumer ring of in-flight
// wavelets. Every fabric queue has exactly one producer (the upstream
// router for a link queue, the local processor for a ramp queue, the local
// router for an inbox) and one consumer, each performing at most one
// operation per cycle.
//
// The cursors split each side's view in two: head/tail are the true
// consumer/producer positions, headSeen/tailSeen are the positions the
// *other* side observes. The seen cursors are synchronised only at the
// cycle barrier (sync), so a push becomes visible to the consumer — and a
// pop frees space for the producer — at the next cycle, never mid-cycle.
// This makes every queue interaction independent of the order in which
// units are stepped within a cycle, which is what lets the sharded engine
// produce bit-identical results to the serial one, and lets either engine
// step units in any order without data races: the producer only writes
// tail and its buffer slot, the consumer only writes head, and the seen
// cursors are written between cycles.
// Cursors are uint32 and wrap; every derived quantity is a difference
// bounded by the queue capacity, which wraparound arithmetic preserves.
//
// A queue owns no storage: its entries live in the fabric's ring slab
// (Fabric.ring), every queue a power-of-two window of ringMask+1 slots
// starting at base. New lays the windows out once for the queues the
// program can ever push to; a queue nothing pushes to keeps base noRing and
// is only ever found empty.
type waveQueue struct {
	base     int32  // first slot of this queue's window in the ring slab
	head     uint32 // consumer cursor (monotonic mod 2^32)
	tail     uint32 // producer cursor (monotonic mod 2^32)
	headSeen uint32 // head as seen by the producer (synced at cycle barrier)
	tailSeen uint32 // tail as seen by the consumer (synced at cycle barrier)
}

// noRing is the base of a queue without a window. It is far enough below
// zero that base+offset stays negative for any offset, so a push the layout
// did not foresee fails the slab's bounds check instead of landing in a
// neighbour's window.
const noRing = math.MinInt32

// visLen is the consumer-visible occupancy.
func (q *waveQueue) visLen() int { return int(q.tailSeen - q.head) }

// prodLen is the producer-visible occupancy: entries pushed but whose pop,
// if any, has not yet crossed a cycle barrier.
func (q *waveQueue) prodLen() int { return int(q.tail - q.headSeen) }

// hasSpace reports whether the producer may push another entry.
func (q *waveQueue) hasSpace(capacity int) bool { return int(q.tail-q.headSeen) < capacity }

// slot addresses the ring entry under a cursor of q.
func (f *Fabric) slot(q *waveQueue, cursor uint32) *waveEntry {
	return &f.ring[int(q.base)+int(cursor&f.ringMask)]
}

// push appends e to q unless the producer sees it at capacity. The ring
// window is a power of two so the index is a mask, not a divide; the
// capacity bound keeps occupancy at the configured depth.
func (f *Fabric) push(q *waveQueue, e waveEntry) bool {
	if int(q.tail-q.headSeen) >= f.opt.QueueCap {
		return false
	}
	*f.slot(q, q.tail) = e
	q.tail++
	return true
}

func (f *Fabric) peek(q *waveQueue) (waveEntry, bool) {
	if q.tailSeen == q.head {
		return waveEntry{}, false
	}
	return *f.slot(q, q.head), true
}

func (f *Fabric) pop(q *waveQueue) waveEntry {
	e := *f.slot(q, q.head)
	q.head++
	return e
}

// syncProducer publishes this cycle's push to the consumer; syncConsumer
// publishes this cycle's pop to the producer. Each is called at the cycle
// barrier by the side that performed the operation.
func (q *waveQueue) syncProducer() { q.tailSeen = q.tail }
func (q *waveQueue) syncConsumer() { q.headSeen = q.head }

// reset re-arms the queue for a fresh run, keeping its window.
func (q *waveQueue) reset() {
	q.head, q.tail, q.headSeen, q.tailSeen = 0, 0, 0, 0
}

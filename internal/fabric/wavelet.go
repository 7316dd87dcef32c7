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

import "repro/internal/mesh"

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

// waveEntry is a queued wavelet: its payload and, in tag, the control flag
// under the first cycle at which it may be acted upon (which models the
// one-cycle link traversal and the T_R ramp latency). Its color is the
// color of the queue it sits in. The ready cycle is kept modulo 2^31:
// inTransit compares it with the current cycle in that arithmetic, which is
// exact while the two lie less than 2^30 cycles apart. A queued entry is
// never more than maxStall cycles ahead of the clock, and Fabric.ageRing
// keeps every entry left waiting from falling 2^30 cycles behind it.
type waveEntry struct {
	val float32
	tag uint32 // readyAt<<1 | ctl, modulo 2^32
}

// queued is w as an entry of its color's queue, ready from cycle readyAt.
func queued(w Wavelet, readyAt int64) waveEntry {
	tag := uint32(readyAt) << 1
	if w.Ctl {
		tag |= 1
	}
	return waveEntry{val: w.Val, tag: tag}
}

// readyFrom is the entry queued anew, ready from cycle readyAt.
func (e waveEntry) readyFrom(readyAt int64) waveEntry {
	return waveEntry{val: e.val, tag: uint32(readyAt)<<1 | e.tag&1}
}

func (e waveEntry) ctl() bool { return e.tag&1 != 0 }

// wavelet is the entry as the wavelet of color c it carries.
func (e waveEntry) wavelet(c mesh.Color) Wavelet { return Wavelet{Val: e.val, Color: c, Ctl: e.ctl()} }

// inTransit reports whether the entry is not ready yet at cycle.
func (e waveEntry) inTransit(cycle int64) bool { return int32(e.tag&^1-uint32(cycle)<<1) > 0 }

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
// A queue owns no storage and does not know its place: queues live in one
// flat slice (Fabric.queues) and are addressed by index, and queue k's
// entries live in window k of the fabric's ring slab (Fabric.ring), a
// power-of-two run of ringMask+1 slots. New lays queues out only for what
// the program can ever push to. Everything else shares queue 0, the sealed
// queue, whose window is never written: consumers always find it empty and
// producers always find it full.
type waveQueue struct {
	head     uint32 // consumer cursor (monotonic mod 2^32)
	tail     uint32 // producer cursor (monotonic mod 2^32)
	headSeen uint32 // head as seen by the producer (synced at cycle barrier)
	tailSeen uint32 // tail as seen by the consumer (synced at cycle barrier)
}

// sealed is queue 0, the stand-in for every queue nothing can push to. Its
// tail sits so far ahead of its head that no push ever fits.
var sealed = waveQueue{tail: 1 << 31}

// visLen is the consumer-visible occupancy.
func (q *waveQueue) visLen() int { return int(q.tailSeen - q.head) }

// prodLen is the producer-visible occupancy: entries pushed but whose pop,
// if any, has not yet crossed a cycle barrier.
func (q *waveQueue) prodLen() int { return int(q.tail - q.headSeen) }

// hasSpace reports whether the producer may push another entry.
func (q *waveQueue) hasSpace(capacity int) bool { return int(q.tail-q.headSeen) < capacity }

// slot addresses the ring entry under a cursor of queue qi.
func (f *Fabric) slot(qi int32, cursor uint32) *waveEntry {
	return &f.ring[int(qi)<<f.ringShift|int(cursor&f.ringMask)]
}

// push appends e to queue qi unless the producer sees it at capacity. The
// ring window is a power of two so the index is a mask, not a divide; the
// capacity bound keeps occupancy at the configured depth.
func (f *Fabric) push(qi int32, e waveEntry) bool {
	q := &f.queues[qi]
	if !q.hasSpace(f.opt.QueueCap) {
		return false
	}
	*f.slot(qi, q.tail) = e
	q.tail++
	return true
}

// peek returns the head entry of queue qi, if the consumer sees one.
func (f *Fabric) peek(qi int32) (waveEntry, bool) {
	q := &f.queues[qi]
	if q.tailSeen == q.head {
		return waveEntry{}, false
	}
	return *f.slot(qi, q.head), true
}

// pop drops the head entry the consumer has peeked.
func (q *waveQueue) pop() { q.head++ }

// syncProducer publishes this cycle's push to the consumer; syncConsumer
// publishes this cycle's pop to the producer. Each is called at the cycle
// barrier by the side that performed the operation.
func (q *waveQueue) syncProducer() { q.tailSeen = q.tail }
func (q *waveQueue) syncConsumer() { q.headSeen = q.head }

// ageRingStride is how many cycles pass between two ageRing sweeps: a
// power of two well inside the 2^30 cycles an entry's ready cycle may lag
// the clock by. It is a variable so tests can sweep every few cycles.
var ageRingStride int64 = 1 << 28

// ageRing moves the ready cycle of every entry that is ready up to the
// current cycle, so that no entry, however long it waits in its queue,
// falls 2^30 cycles behind the clock (see waveEntry). Entries still in
// transit are left alone, and so are the slots no queue holds: whatever a
// free slot says is overwritten before it is read. It runs between cycles.
func (f *Fabric) ageRing() {
	now := uint32(f.cycle) << 1
	for k := range f.ring {
		if e := &f.ring[k]; !e.inTransit(f.cycle) {
			e.tag = now | e.tag&1
		}
	}
}

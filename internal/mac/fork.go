package mac

import "macaw/internal/frame"

// This file provides the queue side of warm-started forking (DESIGN.md §15).
// Queued packets are shared between the warm twin and the fork rather than
// cloned: a Packet is immutable while queued — the engines write only SetSeq
// and Enqueued inside Enqueue, and every later stage reads — so sharing
// preserves pointer identity (MACAW's piggyback path compares queue head and
// pending entry by identity) and is safe under concurrent forks. Sharing
// holds only because the host never recycles a packet enqueued at or before
// the adoption barrier (core's share barrier): on either side, its terminal
// callback hands it to the garbage collector instead of the free list.

// AdoptFrom replaces q's contents with w's, sharing the packets.
func (q *Queue) AdoptFrom(w *Queue) {
	clear(q.buf)
	q.head, q.n = 0, 0
	for i := 0; i < w.n; i++ {
		q.Push(w.at(i))
	}
}

// AdoptFrom rebuilds s as a copy of w: the same first-seen destination order
// and per-destination queues (sharing the queued packets). Destinations whose
// queues have drained remain present, exactly as in the warm twin.
func (s *StreamQueues) AdoptFrom(w *StreamQueues) {
	s.order = append(s.order[:0], w.order...)
	s.qs = make(map[frame.NodeID]*Queue, len(w.qs))
	for d, q := range w.qs {
		nq := &Queue{}
		nq.AdoptFrom(q)
		s.qs[d] = nq
	}
}

package sim

import "fmt"

// This file provides the engine-level primitives behind warm-started forking
// (DESIGN.md §15): a freshly built simulator adopts the clock, scheduling
// counters, RNG cursors, and pending events of a warmed twin, so a parameter
// variant can skip the warmup window entirely. The adopting simulator must
// have been built identically (same seed, same stream creation order); the
// fork layer in internal/core byte-verifies the adopted state against the
// warm capture before a single post-barrier event fires.

// ForceCompact removes every cancelled event from the queue immediately,
// regardless of the usual purge heuristics. Warm capture and fork adoption
// both run it so the two heaps hold exactly the same records: compaction
// preserves the pop sequence (the ordering key is total), so forcing it is
// invisible to the simulation.
func (s *Simulator) ForceCompact() { s.compact() }

// SetClock moves the simulation clock to t without firing anything. Fork
// adoption uses it to place the adopting simulator at the warm barrier.
func (s *Simulator) SetClock(t Time) { s.now = t }

// SetCounters overwrites the scheduling counters: the next event sequence
// number base, the fired-event count, the cancelled-in-queue count, and the
// queue high-water mark. Call it after re-arming adopted events — heapPush
// updates maxQueue, so setting it first would be overwritten.
func (s *Simulator) SetCounters(seq, fired uint64, cancelled, maxq int) {
	s.seq = seq
	s.nfired = fired
	s.ncancelled = cancelled
	s.maxQueue = maxq
}

// SchedCounters reports the scheduling counters SetCounters overwrites, so a
// fork can copy its warm twin's exactly.
func (s *Simulator) SchedCounters() (seq, fired uint64, cancelled, maxq int) {
	return s.seq, s.nfired, s.ncancelled, s.maxQueue
}

// FreeLen reports the recycled-record pool size (inventory state).
func (s *Simulator) FreeLen() int { return len(s.free) }

// QueueLen reports the number of events in the queue, cancelled included.
func (s *Simulator) QueueLen() int { return len(s.queue) }

// DropAllEvents discards every pending event, fired or not, recycling the
// records. Fork adoption drops the freshly built queue before re-arming the
// warm twin's events at their exact ordering keys.
func (s *Simulator) DropAllEvents() {
	for _, x := range s.queue {
		s.recycle(x.rec)
	}
	s.queue = s.queue[:0]
	s.ncancelled = 0
}

// SetFreeList resizes the pool of recycled event records to exactly n. Only
// the length is observable (the state inventory captures it so pooling drift
// surfaces as divergence); the records themselves carry no state. Shrinking
// leaves the dropped records' slab slots unused; growing appends new ones.
func (s *Simulator) SetFreeList(n int) {
	if n <= len(s.free) {
		s.free = s.free[:n]
		return
	}
	for len(s.free) < n {
		s.slab = append(s.slab, record{})
		s.free = append(s.free, int32(len(s.slab)-1))
	}
}

// SyntheticHandle returns an Event handle that refers to no live record but
// answers When and Cancelled with the given values — the shape a handle takes
// after its event fired (or was cancelled and reclaimed). Fork adoption uses
// it to reproduce handles whose events completed before the barrier.
func SyntheticHandle(when Time, cancelled bool) Event {
	return Event{when: when, cancelled: cancelled}
}

// Live reports whether the handle still refers to a pending event in its
// owning simulator (not fired, not cancelled-and-reclaimed). Fork adoption
// uses it to fail closed when a warmed twin holds a pending timer in an FSM
// state that should not have one.
func (r Event) Live() bool { return r.rec() != nil }

// ReadoptCall re-creates src — an event pending in a warmed twin simulator —
// in s at its exact (when, prio, seq) ordering key, without advancing s's own
// sequence counter. callFn(a, b) is the adopting side's callback, scheduled
// as by AtPriorityCall; a and b reference the fork's own structures, never
// the warm twin's (typically Call with the fork's own receiver and the same
// method expression). When src is not live (already fired or
// cancelled-and-reclaimed in its owner), ReadoptCall returns a synthetic
// handle reproducing its observable When/Cancelled values instead.
func (s *Simulator) ReadoptCall(src Event, callFn func(a, b any), a, b any) Event {
	from := src.rec()
	if from == nil {
		return SyntheticHandle(src.when, src.cancelled)
	}
	if s.recycled {
		panic("sim: scheduling on a recycled simulator")
	}
	i := s.alloc()
	x := &s.slab[i]
	*x = record{callFn: callFn, argA: a, argB: b, seq: src.seq, prio: from.prio, cancelled: from.cancelled}
	s.heapPush(entry{when: src.when, key: packKey(from.prio, src.seq), rec: i})
	if x.cancelled {
		s.ncancelled++
	}
	return Event{s: s, seq: src.seq, when: src.when, e: i}
}

// AdvanceRNG fast-forwards every RNG stream to the given cursors by drawing
// and discarding. It fails closed when a stream is missing or already past
// its target — both mean the adopting simulator was not built identically to
// the warm twin, so its streams cannot be positioned onto the same sequence.
// It draws through each stream's own source, so a lazily seeded stream is
// built on its first advance and a recycled simulator's streams panic.
func (s *Simulator) AdvanceRNG(target []StreamCursor) error {
	if len(s.sources) != len(target) {
		return fmt.Errorf("sim: adopt: %d RNG streams here vs %d in warm state", len(s.sources), len(target))
	}
	byNo := make(map[int64]*countingSource, len(s.sources))
	for _, c := range s.sources {
		byNo[c.streamNo] = c
	}
	for _, t := range target {
		c, ok := byNo[t.Stream]
		if !ok {
			return fmt.Errorf("sim: adopt: no RNG stream %d", t.Stream)
		}
		if c.draws > t.Draws {
			return fmt.Errorf("sim: adopt: stream %d already at %d draws, past warm cursor %d", t.Stream, c.draws, t.Draws)
		}
		for c.draws < t.Draws {
			c.Uint64()
		}
	}
	return nil
}

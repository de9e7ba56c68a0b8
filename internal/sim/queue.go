package sim

import "fmt"

// This file implements the simulator's event queue (DESIGN.md §8,
// "Pointer-free event queue"): a binary min-heap of value entries over a
// slab of callback records.
//
// A heap entry is the event's ordering key plus the int32 slab index of its
// record, so a compare never leaves the entry slice and a sift writes no
// pointer (no GC write barrier). The record holds what only firing needs:
// the callback and its arguments, the cancelled flag, and seq as its
// incarnation. Fired and discarded records go onto a free-index list and
// are reused by the next schedule, so steady-state simulation allocates
// nothing per event. Event handles name (simulator, slab index, seq) and
// stay seq-validated: a handle whose record was recycled keeps answering
// When and Cancelled from its own snapshot.

// record is a pooled scheduled-callback record. seq doubles as the
// record's incarnation: it is unique per scheduling and zeroed when the
// record is recycled, so stale handles can tell that their event is gone.
type record struct {
	// fn is called with a and b when the event fires (see AtPriorityCall):
	// the function value and its arguments ride in the pooled record, so
	// scheduling does not allocate a closure.
	fn        func(a, b any)
	a, b      any
	seq       uint64
	cancelled bool
}

// entry is one heap slot: the (when, prio, seq) ordering key, with prio
// and seq packed into one word, and the slab index of the event's record.
type entry struct {
	when Time
	key  uint64 // prio biased into the top 16 bits, seq in the low 48
	rec  int32
}

const seqBits = 48

// packKey packs (prio, seq) so that unsigned order is (prio, seq) order.
func packKey(prio int32, seq uint64) uint64 {
	return uint64(uint16(prio)^0x8000)<<seqBits | seq
}

// less orders entries by (time, priority, insertion). seq is unique, so
// this is a total order and the pop sequence is independent of the heap's
// internal layout: compaction cannot change a run.
func (a entry) less(b entry) bool {
	return a.when < b.when || a.when == b.when && a.key < b.key
}

// heapPush inserts x and sifts it up to its place.
func (s *Simulator) heapPush(x entry) {
	h := append(s.queue, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	s.queue = h
	if len(h) > s.maxQueue {
		s.maxQueue = len(h)
	}
}

// siftDown restores the heap property below i, assuming s.queue[i] is the
// only possibly-misplaced entry.
func (s *Simulator) siftDown(i int) {
	h := s.queue
	n := len(h)
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// heapPop removes and returns the earliest entry.
func (s *Simulator) heapPop() entry {
	h := s.queue
	top := h[0]
	n := len(h) - 1
	s.queue = h[:n]
	if n > 0 {
		s.queue[0] = h[n]
		s.siftDown(0)
	}
	return top
}

// alloc takes a record off the free list, or appends one to the slab.
func (s *Simulator) alloc() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	s.slab = append(s.slab, record{})
	return int32(len(s.slab) - 1)
}

// recycle marks a popped or discarded record dead (stale handles see a seq
// mismatch), drops its callback, and returns it to the free list.
func (s *Simulator) recycle(i int32) {
	s.slab[i] = record{}
	s.free = append(s.free, i)
}

// push schedules a record for an event at (t, prio) and returns its slab
// index and the record, whose callback the caller fills in.
func (s *Simulator) push(t Time, prio int) (int32, *record) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if s.recycled {
		panic("sim: scheduling on a recycled simulator")
	}
	p := int32(int16(prio))
	if int(p) != prio {
		panic(fmt.Sprintf("sim: priority %d out of range", prio))
	}
	s.seq++
	if s.seq >= 1<<seqBits {
		panic("sim: event sequence numbers exhausted")
	}
	i := s.alloc()
	x := &s.slab[i]
	x.seq = s.seq
	s.heapPush(entry{when: t, key: packKey(p, s.seq), rec: i})
	return i, x
}

// compactMin is the queue length below which purge never bothers to compact:
// small heaps are cheap to carry and the rebuild would dominate.
const compactMin = 64

// purge discards cancelled events from the head of the queue so that
// queue[0], when present, is always a live event; when cancelled events
// outnumber live ones it compacts the whole heap, so long runs with many
// cancelled timers do not bloat Pending() or per-operation heap costs.
func (s *Simulator) purge() {
	for len(s.queue) > 0 && s.slab[s.queue[0].rec].cancelled {
		s.recycle(s.heapPop().rec)
		s.ncancelled--
	}
	if s.ncancelled > len(s.queue)/2 && len(s.queue) >= compactMin {
		s.compact()
	}
}

// compact removes every cancelled event from the queue and re-establishes
// the heap invariant. Because (when, prio, seq) is a total order, the pop
// sequence of the surviving events is unchanged, so firing order is too. The
// queue counters are not: Pending drops at once, and MaxQueued may later
// read lower than it would have.
func (s *Simulator) compact() {
	kept := s.queue[:0]
	for _, x := range s.queue {
		if s.slab[x.rec].cancelled {
			s.ncancelled--
			s.recycle(x.rec)
		} else {
			kept = append(kept, x)
		}
	}
	s.queue = kept
	// Floyd heapify: O(n) rebuild of the heap property.
	for i := len(kept)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// ForceCompact removes every cancelled event from the queue immediately,
// regardless of the purge heuristics. Like compact, it keeps firing order
// but changes Pending and possibly MaxQueued.
func (s *Simulator) ForceCompact() { s.compact() }

// Event is a handle to a scheduled callback. The zero Event refers to no
// event; non-zero handles are created exclusively through Simulator.At,
// After and AtPriority. Handles stay safe to use after their event has
// fired: When keeps reporting the scheduled time, Cancel becomes a no-op on
// the simulator (but is still remembered by the handle), and Cancelled
// keeps answering for this event even if the underlying record has been
// recycled for a later one — or handed to another simulator by Recycle.
type Event struct {
	s   *Simulator
	seq uint64
	// when is snapshotted at scheduling time so the handle can answer
	// When() after the record is recycled.
	when Time
	e    int32 // slab index of the event's record
	// cancelled records Cancel calls issued through this handle, so
	// Cancelled() stays truthful once the record's own flag is gone.
	cancelled bool
}

// IsZero reports whether the handle is the zero Event (never scheduled, or
// explicitly cleared by assigning Event{}).
func (r *Event) IsZero() bool { return r == nil || r.s == nil }

// rec returns the handle's record while it still holds the handle's
// incarnation (scheduled and not yet fired or discarded), and nil after.
func (r *Event) rec() *record {
	if r == nil || r.s == nil || int(r.e) >= len(r.s.slab) {
		return nil
	}
	if x := &r.s.slab[r.e]; x.seq == r.seq {
		return x
	}
	return nil
}

// When reports the time at which the event fires (or fired). The zero Event
// reports 0.
func (r *Event) When() Time {
	if r == nil {
		return 0
	}
	return r.when
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op; cancelling the zero Event is
// a no-op too.
func (r *Event) Cancel() {
	if r == nil || r.s == nil {
		return
	}
	r.cancelled = true
	if x := r.rec(); x != nil && !x.cancelled {
		x.cancelled = true
		r.s.ncancelled++
	}
}

// Cancelled reports whether Cancel has been called on the event through
// this handle (or, while the event is still pending, through any handle).
func (r *Event) Cancelled() bool {
	if r == nil {
		return false
	}
	if x := r.rec(); x != nil {
		return x.cancelled
	}
	return r.cancelled
}

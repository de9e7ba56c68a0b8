package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
)

// This file implements the simulator's contribution to the snapshot state
// inventory (DESIGN.md §14): RNG stream cursors and a canonical event-heap
// dump.
//
// Two kinds of simulator state cannot be serialized directly and are instead
// captured as *logical* state:
//
//   - Event records hold Go function values (fn / callFn), which have no
//     portable encoding. The dump therefore records each pending event's
//     (when, prio, seq, cancelled) ordering key — a total order, so the
//     future firing sequence is fully determined — plus the callback's
//     symbol name and argument types, which are stable within a build and
//     make the dump self-describing for triage.
//
//   - RNG streams are cursors into deterministic sequences. Rather than
//     reaching into the generator's state, every source the simulator hands
//     out is wrapped in a countingSource that tallies draws; the (seed,
//     stream number, draw count) triple is the complete cursor, because the
//     underlying sequence is a pure function of the seed.
//
// The pooled free list and cancelled-event bookkeeping are part of the
// inventory too: free-list length and ncancelled affect nothing observable,
// but capturing them makes replay divergence visible at the first layer
// where histories differ instead of much later in the run.

// StreamCursors reports the draw count of every RNG stream the simulator has
// created, keyed by stream number (0 is the primary generator, 1.. are
// NewRand streams in creation order). The result is sorted by stream number.
func (s *Simulator) StreamCursors() []StreamCursor {
	out := make([]StreamCursor, len(s.sources))
	for i, c := range s.sources {
		out[i] = StreamCursor{Stream: c.streamNo, Draws: c.draws}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// StreamCursor is one RNG stream's position: the stream number it was
// created as and how many draws have been taken from it.
type StreamCursor struct {
	Stream int64
	Draws  uint64
}

// funcName resolves an event's callback to its symbol name. Closure and
// method-value names are assigned by the compiler and are stable within a
// build, which is the scope a state comparison runs in. A call-style
// event whose argB is itself a function (a Call trampoline carrying a method
// expression) is named after that function, so a dump names the protocol
// timer — onCTSTimeout, not the trampoline every timer shares.
func funcName(x *record) string {
	var fn reflect.Value
	switch {
	case x.fn != nil:
		fn = reflect.ValueOf(x.fn)
	case x.callFn == nil:
		return "<nil>"
	default:
		fn = reflect.ValueOf(x.callFn)
		if b := reflect.ValueOf(x.argB); b.Kind() == reflect.Func && !b.IsNil() {
			fn = b
		}
	}
	if f := runtime.FuncForPC(fn.Pointer()); f != nil {
		return f.Name()
	}
	return "<unknown>"
}

// AppendState appends a canonical dump of the simulator's logical state:
// clock, scheduling counters, RNG stream cursors, and every pending event in
// (when, prio, seq) order — the total order that determines all future
// firing. Cancelled-but-unpurged events and the free-list length are
// included so that pooling bookkeeping differences surface as state
// divergence rather than hiding until they change an allocation pattern.
func (s *Simulator) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "sim now=%d seq=%d fired=%d cancelled=%d free=%d maxq=%d streams=%d seed=%d\n",
		s.now, s.seq, s.nfired, s.ncancelled, len(s.free), s.maxQueue, s.streams, s.seed)
	for _, c := range s.StreamCursors() {
		b = fmt.Appendf(b, "rng stream=%d draws=%d\n", c.Stream, c.Draws)
	}
	evs := make([]entry, len(s.queue))
	copy(evs, s.queue)
	sort.Slice(evs, func(i, j int) bool { return evs[i].less(evs[j]) })
	b = fmt.Appendf(b, "heap n=%d\n", len(evs))
	for _, e := range evs {
		x := &s.slab[e.rec]
		b = fmt.Appendf(b, "ev when=%d prio=%d seq=%d cancelled=%t fn=%s argA=%T argB=%T\n",
			e.when, e.prio(), e.seq(), x.cancelled, funcName(x), x.argA, x.argB)
	}
	return b
}

package csma

import (
	"testing"

	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// TestDisabledObserverHooksAllocationFree pins the cost side of the
// passivity contract (DESIGN.md §12): with no observer attached, the note
// hooks the engine inherits from mac.Base must be a nil check and nothing
// else — zero allocations — so instrumentation support cannot tax a bare run.
func TestDisabledObserverHooksAllocationFree(t *testing.T) {
	w := newWorld(1)
	st := w.add(1, geom.V(0, 0, 6), Options{})
	q := &st.m.q
	p := &mac.Packet{Dst: 2}
	if n := statecheck.Mallocs(100, func() {
		st.m.NoteQueue("push", 2, q)
		st.m.Retry(2)
		st.m.Drop(p, mac.DropRetries)
	}); n != 0 {
		t.Fatalf("disabled observer hooks allocated %d times per call set, want 0", n)
	}
}

// timers lists every CSMA state-timer continuation by name.
var timers = map[string]func(*CSMA){
	"attempt":       (*CSMA).attempt,
	"onDataAirDone": (*CSMA).onDataAirDone,
	"onAckAirDone":  (*CSMA).onAckAirDone,
	"onACKTimeout":  (*CSMA).onACKTimeout,
}

// TestStateTimersAllocationFree pins DESIGN.md §8's no-per-event-allocation
// rule for the MAC layer: a state timer is armed with the receiver and a
// method expression riding in a pooled event record, so arming, cancelling
// and firing it allocate nothing.
func TestStateTimersAllocationFree(t *testing.T) {
	w := newWorld(1)
	c := w.add(1, geom.V(0, 0, 6), Options{ACK: true}).m
	for name, fn := range timers {
		if n := statecheck.Mallocs(100, func() {
			c.setTimer(sim.Millisecond, fn)
			c.ClearTimer()
			w.s.NextEventTime() // purge: the cancelled record is recycled
		}); n != 0 {
			t.Errorf("arming and cancelling %s allocated %d times, want 0", name, n)
		}
		// With an empty queue each continuation returns to IDLE (or, for
		// a finished DATA frame, re-arms the ACK timer), so Step measures
		// the dispatch.
		if n := statecheck.Mallocs(100, func() {
			c.setTimer(sim.Millisecond, fn)
			w.s.Step()
		}); n != 0 {
			t.Errorf("arming and firing %s allocated %d times, want 0", name, n)
		}
	}
}

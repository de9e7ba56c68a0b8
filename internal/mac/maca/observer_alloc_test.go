package maca

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
	st := w.addStation(1, geom.V(0, 0, 6))
	q := &st.m.q
	p := &mac.Packet{Dst: 2}
	if n := statecheck.Mallocs(t, 100, func() {
		st.m.NoteQueue("push", 2, q)
		st.m.Retry(2)
		st.m.Drop(p, mac.DropRetries)
	}); n != 0 {
		t.Fatalf("disabled observer hooks allocated %d times per call set, want 0", n)
	}
}

// timers lists every MACA state-timer continuation by name.
var timers = map[string]func(*MACA){
	"onContendTimeout": (*MACA).onContendTimeout,
	"onCTSTimeout":     (*MACA).onCTSTimeout,
	"onTimeoutToIdle":  (*MACA).onTimeoutToIdle,
	"onQuietEnd":       (*MACA).onQuietEnd,
	"onDataSent":       (*MACA).onDataSent,
}

// TestStateTimersAllocationFree pins DESIGN.md §8's no-per-event-allocation
// rule for the MAC layer: a state timer is armed with the receiver and a
// method expression riding in a pooled event record, so arming, cancelling
// and firing it allocate nothing.
func TestStateTimersAllocationFree(t *testing.T) {
	w := newWorld(1)
	m := w.addStation(1, geom.V(0, 0, 6)).m
	for name, fn := range timers {
		if n := statecheck.Mallocs(t, 100, func() {
			m.setTimer(sim.Millisecond, fn)
			m.ClearTimer()
			w.s.NextEventTime() // purge: the cancelled record is recycled
		}); n != 0 {
			t.Errorf("arming and cancelling %s allocated %d times, want 0", name, n)
		}
		// With an empty queue every continuation is a no-op or a return
		// to IDLE, so Step measures the dispatch.
		if n := statecheck.Mallocs(t, 100, func() {
			m.setTimer(sim.Millisecond, fn)
			w.s.Step()
		}); n != 0 {
			t.Errorf("arming and firing %s allocated %d times, want 0", name, n)
		}
		if m.State() != Idle {
			t.Fatalf("firing %s left state %s, want IDLE", name, m.State())
		}
	}
}

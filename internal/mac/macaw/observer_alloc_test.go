package macaw

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
	st := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	q := st.m.queueFor(2)
	p := &mac.Packet{Dst: 2}
	if n := statecheck.Mallocs(100, func() {
		st.m.NoteQueue("push", 2, q)
		st.m.Retry(2)
		st.m.Drop(p, mac.DropRetries)
	}); n != 0 {
		t.Fatalf("disabled observer hooks allocated %d times per call set, want 0", n)
	}
}

// timers lists every MACAW state-timer continuation by name.
var timers = map[string]func(*MACAW){
	"onContendTimeout": (*MACAW).onContendTimeout,
	"onCTSTimeout":     (*MACAW).onCTSTimeout,
	"onACKTimeout":     (*MACAW).onACKTimeout,
	"onExpectTimeout":  (*MACAW).onExpectTimeout,
	"onQuietEnd":       (*MACAW).onQuietEnd,
	"onMcastRTSSent":   (*MACAW).onMcastRTSSent,
	"onMcastDataSent":  (*MACAW).onMcastDataSent,
	"onDSSent":         (*MACAW).onDSSent,
	"onDataAirDone":    (*MACAW).onDataAirDone,
	"onCtrlSent":       (*MACAW).onCtrlSent,
}

// TestStateTimersAllocationFree pins DESIGN.md §8's no-per-event-allocation
// rule for the MAC layer: a state timer is armed with the receiver and a
// method expression riding in a pooled event record, so arming, cancelling
// and firing it allocate nothing.
func TestStateTimersAllocationFree(t *testing.T) {
	w := newWorld(1)
	m := w.add(1, geom.V(0, 0, 6), DefaultOptions()).m
	for name, fn := range timers {
		if n := statecheck.Mallocs(100, func() {
			m.setTimer(sim.Millisecond, fn)
			m.ClearTimer()
			w.s.NextEventTime() // purge: the cancelled record is recycled
		}); n != 0 {
			t.Errorf("arming and cancelling %s allocated %d times, want 0", name, n)
		}
	}
	// An idle station with empty queues makes these continuations no-ops
	// (state guards, or a return to IDLE), so Step measures the dispatch.
	for _, name := range []string{"onContendTimeout", "onCTSTimeout", "onACKTimeout", "onExpectTimeout", "onQuietEnd", "onCtrlSent"} {
		fn := timers[name]
		if n := statecheck.Mallocs(100, func() {
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

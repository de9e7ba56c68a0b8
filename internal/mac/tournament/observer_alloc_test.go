package tournament

import (
	"testing"

	"macaw/internal/geom"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// timers lists every tournament state-timer continuation by name.
var timers = map[string]func(*Tournament){
	"onBoundary":    (*Tournament).onBoundary,
	"onRoundEnd":    (*Tournament).onRoundEnd,
	"onDataAirDone": (*Tournament).onDataAirDone,
	"onACKTimeout":  (*Tournament).onACKTimeout,
}

// TestStateTimersAllocationFree pins DESIGN.md §8's no-per-event-allocation
// rule for the MAC layer: a state timer is armed with the receiver and a
// method expression riding in a pooled event record, so arming, cancelling
// and firing it allocate nothing.
func TestStateTimersAllocationFree(t *testing.T) {
	w := newWorld(1)
	m := w.add(1, geom.V(0, 0, 6), Options{}).m
	for name, fn := range timers {
		if n := statecheck.Mallocs(t, 100, func() {
			m.setTimer(sim.Millisecond, fn)
			m.ClearTimer()
			w.s.NextEventTime() // purge: the cancelled record is recycled
		}); n != 0 {
			t.Errorf("arming and cancelling %s allocated %d times, want 0", name, n)
		}
	}
	// With an empty queue these continuations fall back to IDLE, so Step
	// measures the dispatch. (A finished DATA frame needs a packet in flight.)
	for _, name := range []string{"onBoundary", "onRoundEnd", "onACKTimeout"} {
		if n := statecheck.Mallocs(t, 100, func() {
			m.setTimer(sim.Millisecond, timers[name])
			w.s.Step()
		}); n != 0 {
			t.Errorf("arming and firing %s allocated %d times, want 0", name, n)
		}
		if m.State() != Idle {
			t.Fatalf("firing %s left state %s, want IDLE", name, m.State())
		}
	}
}

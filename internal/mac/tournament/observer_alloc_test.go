package tournament

import (
	"testing"

	"macaw/internal/geom"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// TestStateTimersAllocationFree pins DESIGN.md §8's no-per-event-allocation
// rule for the MAC layer: a state timer is armed with the receiver and a
// method expression riding in a pooled event record, so arming, cancelling
// and firing it allocate nothing.
func TestStateTimersAllocationFree(t *testing.T) {
	w := newWorld(1)
	m := w.add(1, geom.V(0, 0, 6), Options{}).m
	for k := tBoundary; k <= tACKTimeout; k++ {
		if n := statecheck.Mallocs(100, func() {
			m.setTimer(sim.Millisecond, k)
			m.disarm()
			w.s.NextEventTime() // purge: the cancelled record is recycled
		}); n != 0 {
			t.Errorf("arming and cancelling timer kind %d allocated %d times, want 0", k, n)
		}
	}
	// With an empty queue these continuations fall back to IDLE, so Step
	// measures the dispatch. (A finished DATA frame needs a packet in flight.)
	for _, k := range []tKind{tBoundary, tRound, tACKTimeout} {
		if n := statecheck.Mallocs(100, func() {
			m.setTimer(sim.Millisecond, k)
			w.s.Step()
		}); n != 0 {
			t.Errorf("arming and firing timer kind %d allocated %d times, want 0", k, n)
		}
		if m.State() != Idle {
			t.Fatalf("firing timer kind %d left state %s, want IDLE", k, m.State())
		}
	}
}

package dcf

import (
	"testing"

	"macaw/internal/geom"
	"macaw/internal/sim"
)

// TestStateTimersAllocationFree pins DESIGN.md §8's no-per-event-allocation
// rule for the MAC layer: a state timer is armed with the receiver and a
// method expression riding in a pooled event record, so arming, cancelling
// and firing it allocate nothing.
func TestStateTimersAllocationFree(t *testing.T) {
	w := newWorld(1)
	d := w.add(1, geom.V(0, 0, 6), Options{}).m
	for k := tAttempt; k <= tBcastAir; k++ {
		if n := testing.AllocsPerRun(100, func() {
			d.setTimer(sim.Millisecond, k)
			d.disarm()
			w.s.NextEventTime() // purge: the cancelled record is recycled
		}); n != 0 {
			t.Errorf("arming and cancelling timer kind %d allocated %.1f times, want 0", k, n)
		}
	}
	// With an empty queue these continuations fall back to IDLE, so Step
	// measures the dispatch. (The rest transmit a frame, which allocates.)
	for _, k := range []tKind{tAttempt, tCTSTimeout, tACKTimeout, tDataTimeout, tAckAir} {
		if n := testing.AllocsPerRun(100, func() {
			d.setTimer(sim.Millisecond, k)
			w.s.Step()
		}); n != 0 {
			t.Errorf("arming and firing timer kind %d allocated %.1f times, want 0", k, n)
		}
		if d.State() != Idle {
			t.Fatalf("firing timer kind %d left state %s, want IDLE", k, d.State())
		}
	}
}

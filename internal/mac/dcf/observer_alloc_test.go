package dcf

import (
	"testing"

	"macaw/internal/geom"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// timers lists every DCF state-timer continuation by name.
var timers = map[string]func(*DCF){
	"attempt":        (*DCF).attempt,
	"onCTSTimeout":   (*DCF).onCTSTimeout,
	"sendData":       (*DCF).sendData,
	"onACKTimeout":   (*DCF).onACKTimeout,
	"sendCTS":        (*DCF).sendCTS,
	"onDataTimeout":  (*DCF).onDataTimeout,
	"sendACK":        (*DCF).sendACK,
	"onAckAirDone":   (*DCF).onAckAirDone,
	"onBcastAirDone": (*DCF).onBcastAirDone,
}

// TestStateTimersAllocationFree pins DESIGN.md §8's no-per-event-allocation
// rule for the MAC layer: a state timer is armed with the receiver and a
// method expression riding in a pooled event record, so arming, cancelling
// and firing it allocate nothing.
func TestStateTimersAllocationFree(t *testing.T) {
	w := newWorld(1)
	d := w.add(1, geom.V(0, 0, 6), Options{}).m
	for name, fn := range timers {
		if n := statecheck.Mallocs(t, 100, func() {
			d.setTimer(sim.Millisecond, fn)
			d.ClearTimer()
			w.s.NextEventTime() // purge: the cancelled record is recycled
		}); n != 0 {
			t.Errorf("arming and cancelling %s allocated %d times, want 0", name, n)
		}
	}
	// With an empty queue these continuations fall back to IDLE, so Step
	// measures the dispatch. (The rest transmit a frame, which allocates.)
	for _, name := range []string{"attempt", "onCTSTimeout", "onACKTimeout", "onDataTimeout", "onAckAirDone"} {
		if n := statecheck.Mallocs(t, 100, func() {
			d.setTimer(sim.Millisecond, timers[name])
			w.s.Step()
		}); n != 0 {
			t.Errorf("arming and firing %s allocated %d times, want 0", name, n)
		}
		if d.State() != Idle {
			t.Fatalf("firing %s left state %s, want IDLE", name, d.State())
		}
	}
}

package token

import (
	"testing"

	"macaw/internal/mac"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// TestTimersAllocationFree pins DESIGN.md §8's no-per-event-allocation rule
// for the token scheme: the state timer and the silence watchdog are armed
// with the receiver and a method expression riding in a pooled event record,
// so arming, cancelling and firing them allocate nothing.
func TestTimersAllocationFree(t *testing.T) {
	w := newRing(1, 1, Options{})
	tk := w.nodes[0].m
	// Let the ring of one bootstrap: it acquires the token, finds nobody
	// to pass it to and parks in HOLDING behind a recovery pause.
	w.s.Run(2 * mac.DefaultConfig().Slot())
	tk.ClearTimer()
	if tk.State() != Holding {
		t.Fatalf("bootstrap left state %s, want HOLDING", tk.State())
	}
	for name, fn := range map[string]func(*Token){
		"onDataSent":     (*Token).onDataSent,
		"onHoldPause":    (*Token).onHoldPause,
		"onWatchTimeout": (*Token).onWatchTimeout,
	} {
		if n := statecheck.Mallocs(100, func() {
			tk.setTimer(sim.Microsecond, fn)
			tk.ClearTimer()
			w.s.NextEventTime() // purge: the cancelled record is recycled
		}); n != 0 {
			t.Errorf("arming and cancelling %s allocated %d times, want 0", name, n)
		}
	}
	// Only the watchdog is pending now; in HOLDING it fires and re-arms.
	if n := statecheck.Mallocs(100, func() { w.s.Step() }); n != 0 {
		t.Errorf("firing and re-arming the watchdog allocated %d times, want 0", n)
	}
	if tk.State() != Holding || tk.Regenerations != 0 {
		t.Fatalf("watchdog firings left state %s, %d regenerations", tk.State(), tk.Regenerations)
	}
}

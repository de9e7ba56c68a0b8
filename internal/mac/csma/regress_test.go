package csma

// Regression test for a convention-divergence bug the MAC SPI extraction
// flushed out: the csma Halt path cancelled its state timer directly instead
// of through clearTimer, so the cancellation never reached ObserveTimer and
// an attached trace showed a timer still pending on a halted station.

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// timerObs records every ObserveTimer report.
type timerObs struct{ timers []sim.Time }

func (o *timerObs) ObserveTx(*frame.Frame)                   {}
func (o *timerObs) ObserveRx(*frame.Frame)                   {}
func (o *timerObs) ObserveState(string, string)              {}
func (o *timerObs) ObserveTimer(at sim.Time)                 { o.timers = append(o.timers, at) }
func (o *timerObs) ObserveQueue(string, frame.NodeID, int)   {}
func (o *timerObs) ObserveDeliver(*frame.Frame)              {}
func (o *timerObs) ObserveRetry(frame.NodeID)                {}
func (o *timerObs) ObserveDrop(frame.NodeID, mac.DropReason) {}

// TestHaltReportsTimerCancellation pins the fix: Halt on a station with an
// armed backoff timer must report the cancellation, so its last timer
// observation is -1, matching the convention every engine follows.
func TestHaltReportsTimerCancellation(t *testing.T) {
	w := newWorld(21)
	a := w.add(1, geom.V(0, 0, 6), Options{ACK: true})
	obs := &timerObs{}
	a.m.Env.Obs = []mac.Observer{obs}
	a.m.Enqueue(pkt(9)) // arms the attempt timer toward an absent peer
	w.s.Run(5 * sim.Millisecond)
	if n := len(obs.timers); n == 0 || obs.timers[n-1] < 0 {
		t.Fatalf("precondition: timer observations %v, want an armed timer", obs.timers)
	}
	a.m.Halt()
	if n := len(obs.timers); obs.timers[n-1] != -1 {
		t.Fatalf("timer observations %v: Halt did not report the cancellation", obs.timers)
	}
	if a.m.TimerPending() {
		t.Fatal("timer still pending after Halt")
	}
}

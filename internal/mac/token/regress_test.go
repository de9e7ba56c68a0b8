package token

// Regression tests for the convention-divergence bugs the MAC SPI extraction
// flushed out of the token engine: before the extraction the engine had no
// Halt at all and skipped the observer discipline the other engines follow.

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// recObs records every observer hook invocation in order.
type recObs struct {
	timers   []sim.Time
	queueOps []string
	tx       int
	rx       int
	states   []string
	deliver  int
	drops    []mac.DropReason
}

func (o *recObs) ObserveTx(*frame.Frame)       { o.tx++ }
func (o *recObs) ObserveRx(*frame.Frame)       { o.rx++ }
func (o *recObs) ObserveState(from, to string) { o.states = append(o.states, from+">"+to) }
func (o *recObs) ObserveTimer(at sim.Time)     { o.timers = append(o.timers, at) }
func (o *recObs) ObserveDeliver(*frame.Frame)  { o.deliver++ }
func (o *recObs) ObserveQueue(op string, _ frame.NodeID, n int) {
	o.queueOps = append(o.queueOps, op)
}
func (o *recObs) ObserveDrop(_ frame.NodeID, reason mac.DropReason) {
	o.drops = append(o.drops, reason)
}
func (o *recObs) ObserveRetry(frame.NodeID) {}

// observedRing builds a 2-station ring with a recording observer on station 1.
func observedRing(seed int64) (*world, *recObs) {
	w := newRing(seed, 2, Options{})
	obs := &recObs{}
	w.nodes[0].m.Env.Obs = []mac.Observer{obs}
	return w, obs
}

// TestHaltSilencesZombieInstance pins the convention bug the SPI extraction
// exposed: the token engine had no Halt, so a crashed station's instance kept
// re-arming its watchdog and driving the shared radio after a restart bound a
// fresh engine. A halted instance must cancel both events, drop its queue as
// DropDisabled, and never transmit again.
func TestHaltSilencesZombieInstance(t *testing.T) {
	w := newRing(11, 2, Options{})
	a := w.nodes[0]
	for i := 0; i < 3; i++ {
		a.m.Enqueue(pkt(2))
	}
	w.s.Run(200 * sim.Millisecond) // ring running, token circulating
	dropped := 0
	a.m.Env.Callbacks.Dropped = func(_ *mac.Packet, r mac.DropReason) {
		if r != mac.DropDisabled {
			t.Fatalf("drop reason %v, want DropDisabled", r)
		}
		dropped++
	}
	a.m.Enqueue(pkt(2))
	a.m.Halt()
	if !a.m.Halted() || a.m.QueueLen() != 0 {
		t.Fatalf("halted=%t queue=%d", a.m.Halted(), a.m.QueueLen())
	}
	if dropped == 0 {
		t.Fatal("halt drained the queue without NotifyDropped accounting")
	}
	if a.m.TimerPending() {
		t.Fatal("state timer or watchdog still armed after Halt — the zombie would regenerate the token")
	}
	sentBefore := a.m.Stats().DataSent
	a.m.Enqueue(pkt(2)) // must be refused, not queued
	// Hand the zombie the token and let the watchdog horizon pass: a
	// pre-fix instance would acquire, transmit, and regenerate.
	a.m.RadioReceive(&frame.Frame{Type: frame.TOKEN, Src: 2, Dst: 1})
	w.s.Run(w.s.Now() + 30*sim.Second)
	if a.m.Stats().DataSent != sentBefore || a.m.QueueLen() != 0 {
		t.Fatalf("halted instance still active: sent %d->%d queue=%d",
			sentBefore, a.m.Stats().DataSent, a.m.QueueLen())
	}
}

// TestObserverDisciplineMatchesConvention pins the observer-notification
// convention the other engines follow and the token engine used to skip
// entirely: push/pop queue accounting, ObserveTx before every radiated frame,
// ObserveTimer cancellation reports, and ObserveDeliver for handed-up data.
func TestObserverDisciplineMatchesConvention(t *testing.T) {
	w, obs := observedRing(12)
	w.nodes[0].m.Enqueue(pkt(2))
	w.nodes[1].m.Enqueue(pkt(1))
	w.s.Run(5 * sim.Second)
	if obs.tx == 0 {
		t.Fatal("no ObserveTx despite token passes and data")
	}
	if obs.rx == 0 {
		t.Fatal("no ObserveRx despite receptions")
	}
	push, pop := 0, 0
	for _, op := range obs.queueOps {
		switch op {
		case "push":
			push++
		case "pop":
			pop++
		}
	}
	if push != 1 || pop != 1 {
		t.Fatalf("queue accounting push=%d pop=%d, want 1/1 (ops %v)", push, pop, obs.queueOps)
	}
	if obs.deliver != 1 {
		t.Fatalf("ObserveDeliver = %d, want 1", obs.deliver)
	}
	if len(obs.states) == 0 {
		t.Fatal("no FSM transitions observed")
	}
	cancelled := false
	for _, at := range obs.timers {
		if at < 0 {
			cancelled = true
		}
	}
	if !cancelled {
		t.Fatal("no ObserveTimer(-1): timer cancellations go unreported")
	}
}

// TestHaltReportsTimerCancellation pins the ordering rule: Halt must report
// the state-timer cancellation through ObserveTimer(-1) as its last timer
// observation, exactly like the other engines' halt paths.
func TestHaltReportsTimerCancellation(t *testing.T) {
	w, obs := observedRing(13)
	w.nodes[0].m.Enqueue(pkt(2))
	w.s.Run(200 * sim.Millisecond)
	w.nodes[0].m.Enqueue(pkt(2)) // still queued at halt time
	w.nodes[0].m.Halt()
	if n := len(obs.timers); n == 0 || obs.timers[n-1] != -1 {
		t.Fatalf("timer observations %v: Halt did not report cancellation last", obs.timers)
	}
	if len(obs.drops) == 0 {
		t.Fatal("queue drain bypassed ObserveDrop")
	}
	for _, r := range obs.drops {
		if r != mac.DropDisabled {
			t.Fatalf("ObserveDrop saw %v, want DropDisabled", r)
		}
	}
}

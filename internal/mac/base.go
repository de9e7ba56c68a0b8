package mac

import (
	"macaw/internal/frame"
	"macaw/internal/sim"
)

// Base is the engine chassis every protocol engine embeds: it owns the Env,
// the state timer, the frame scratch, the link-layer sequence counter, the
// MAC counters and the halt latch, and it is the only code that talks to
// the observer, the radio's transmit path and the host callbacks. The SPI
// conventions (spi.go) hold by construction for anything routed through it;
// an engine keeps only its FSM rules and its own share of Halt.
//
// The state timer's continuation is passed in as sim.Call[*E] plus the
// engine and a method expression, never built here: a generic helper that
// names sim.Call[E] itself allocates a dictionary closure on every arm.
type Base struct {
	Env *Env
	// Out is the frame being sent. The radio copies it at Transmit, so this
	// one scratch value serves every transmission.
	Out frame.Frame
	// Seq is the last link-layer sequence number Admit assigned.
	Seq uint32
	// Counters are the MAC counters Stats reports.
	Counters Stats

	timer  sim.Event
	halted bool
}

// ArmAt (re)arms the state timer to run call(recv, fn) at t — for an engine
// E, call is sim.Call[*E] and fn a method expression of type func(*E), so
// the receiver rides in the pooled event record and re-arming never
// allocates — and reports the arm to the observer.
func (b *Base) ArmAt(t sim.Time, call func(a, b any), recv, fn any) {
	b.timer.Cancel()
	b.timer = b.Env.Sim.AtPriorityCall(t, 0, call, recv, fn)
	if b.Env.Obs != nil {
		b.Env.Obs.ObserveTimer(t)
	}
}

// ClearTimer cancels the state timer and reports the cancellation.
func (b *Base) ClearTimer() {
	b.timer.Cancel()
	b.timer = sim.Event{}
	if b.Env.Obs != nil {
		b.Env.Obs.ObserveTimer(-1)
	}
}

// Fired marks the state timer consumed; timer continuations call it once
// they have decided to act.
func (b *Base) Fired() { b.timer = sim.Event{} }

// TimerWhen reports when the state timer fires, or -1 when none is armed.
func (b *Base) TimerWhen() sim.Time {
	if b.timer.IsZero() || b.timer.Cancelled() {
		return -1
	}
	return b.timer.When()
}

// TimerPending reports whether the state timer is armed.
func (b *Base) TimerPending() bool { return b.TimerWhen() >= 0 }

// Transmit radiates f, reporting it to the observer first.
func (b *Base) Transmit(f *frame.Frame) sim.Duration {
	if b.Env.Obs != nil {
		b.Env.Obs.ObserveTx(f)
	}
	return b.Env.Radio.Transmit(f)
}

// Receive is the prologue of every radio reception: false on a halted
// engine, which ignores the frame; otherwise it reports f to the observer
// and returns true.
func (b *Base) Receive(f *frame.Frame) bool {
	if b.halted {
		return false
	}
	if b.Env.Obs != nil {
		b.Env.Obs.ObserveRx(f)
	}
	return true
}

// Deliver hands a received DATA frame's payload to transport.
func (b *Base) Deliver(f *frame.Frame) {
	b.Counters.DataReceived++
	if b.Env.Obs != nil {
		b.Env.Obs.ObserveDeliver(f)
	}
	b.Env.Callbacks.NotifyDeliver(f.Src, f.Payload)
}

// Admit stamps a packet offered to Enqueue with the next sequence number and
// the enqueue time. A halted engine refuses it instead, with DropDisabled
// and no drop counted, and Admit returns false.
func (b *Base) Admit(p *Packet) bool {
	if b.halted {
		b.Env.Callbacks.NotifyDropped(p, DropDisabled)
		return false
	}
	b.Seq++
	p.SetSeq(b.Seq)
	p.Enqueued = b.Env.Sim.Now()
	return true
}

// NoteState reports an FSM transition; the engine calls it only on an
// actual change.
func (b *Base) NoteState(from, to string) {
	if b.Env.Obs != nil {
		b.Env.Obs.ObserveState(from, to)
	}
}

// NoteQueue reports a queue operation on q, the queue toward dst, with its
// length after the operation.
func (b *Base) NoteQueue(op string, dst frame.NodeID, q *Queue) {
	if b.Env.Obs != nil {
		b.Env.Obs.ObserveQueue(op, dst, q.Len())
	}
}

// Retry counts one failed attempt toward dst being retried.
func (b *Base) Retry(dst frame.NodeID) {
	b.Counters.Retries++
	if b.Env.Obs != nil {
		b.Env.Obs.ObserveRetry(dst)
	}
}

// Drop abandons p: it counts the drop, reports it and calls back. The
// packet is dead once Drop returns.
func (b *Base) Drop(p *Packet, reason DropReason) {
	b.Counters.Drops++
	if b.Env.Obs != nil {
		b.Env.Obs.ObserveDrop(p.Dst, reason)
	}
	b.Env.Callbacks.NotifyDropped(p, reason)
}

// BeginHalt latches the halt flag and cancels the state timer. It returns
// false when the engine was already halted; otherwise the engine's Halt
// goes on to reset its FSM and drain its queues with DrainQueue.
func (b *Base) BeginHalt() bool {
	if b.halted {
		return false
	}
	b.halted = true
	b.ClearTimer()
	return true
}

// DrainQueue drops every packet in q with DropDisabled (no queue notes: the
// queue dies with the station).
func (b *Base) DrainQueue(q *Queue) {
	for p := q.Pop(); p != nil; p = q.Pop() {
		b.Drop(p, DropDisabled)
	}
}

// Halted reports whether the engine has been halted.
func (b *Base) Halted() bool { return b.halted }

// Stats returns the MAC counters.
func (b *Base) Stats() Stats { return b.Counters }

// Package csma implements the carrier-sense baseline that §2.2 of the paper
// argues against: stations sense the channel at the transmitter and send
// data directly, with no RTS-CTS exchange. It exists to demonstrate the
// hidden- and exposed-terminal pathologies that motivate MACA/MACAW.
//
// The variant implemented is non-persistent CSMA with an optional link-level
// ACK (without an ACK the sender has no way to observe hidden-terminal
// collisions at all). Binary exponential backoff spaces retransmissions.
package csma

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// State is a CSMA sender state.
type State int

// CSMA states.
const (
	Idle State = iota
	Backoff
	Sending
	WFACK
)

var stateNames = [...]string{"IDLE", "BACKOFF", "SENDING", "WFACK"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Options configures a CSMA instance.
type Options struct {
	// ACK enables the link-level acknowledgement; without it the sender
	// fires and forgets.
	ACK bool
	// Policy is the backoff policy (default single-counter BEB).
	Policy backoff.Policy
}

// CSMA is one station's protocol instance.
type CSMA struct {
	mac.Base
	opt Options
	pol backoff.Policy

	st      State
	q       mac.Queue
	retries int
	// sending references the head packet while its DATA frame is on the
	// air (still queued; finish pops it). It stays nil while an ACK is on
	// the air, which is how the two Sending-state timers are told apart.
	sending *mac.Packet
}

// New returns a CSMA instance bound to env's radio.
func New(env *mac.Env, opt Options) *CSMA {
	c, ok := mac.TakeSpare[*CSMA](env)
	if !ok {
		c = new(CSMA)
	}
	*c = CSMA{Base: mac.Base{Env: env}, opt: opt, pol: opt.Policy, q: mac.NewQueue(env.Blocks)}
	if c.pol == nil {
		c.pol = backoff.NewSingle(backoff.NewBEB(), false)
	}
	env.Radio.SetHandler(c)
	return c
}

// State returns the current sender state.
func (c *CSMA) State() State { return c.st }

// FSMState implements mac.Engine.
func (c *CSMA) FSMState() string { return c.st.String() }

// Halt implements mac.Engine.
func (c *CSMA) Halt() {
	if !c.BeginHalt() {
		return
	}
	c.st = Idle
	c.sending = nil
	c.DrainQueue(&c.q)
}

// Protocol implements mac.Engine.
func (c *CSMA) Protocol() string { return "csma" }

// QueueLen implements mac.MAC.
func (c *CSMA) QueueLen() int { return c.q.Len() }

// Enqueue implements mac.MAC.
func (c *CSMA) Enqueue(p *mac.Packet) {
	if !c.Admit(p) {
		return
	}
	c.q.Push(p)
	c.NoteQueue("push", p.Dst, &c.q)
	if c.st == Idle {
		c.schedule()
	}
}

// setTimer arms the state timer for fn, a method expression, d from now.
func (c *CSMA) setTimer(d sim.Duration, fn func(*CSMA)) {
	c.ArmAt(c.Env.Sim.Now()+d, sim.Call[*CSMA], c, fn)
}

// setState moves the FSM to s.
func (c *CSMA) setState(s State) {
	if s != c.st {
		c.NoteState(c.st.String(), s.String())
	}
	c.st = s
}

// schedule arms the next sense attempt 1..BO slots from now (non-persistent
// CSMA defers a random interval rather than waiting for the carrier edge).
func (c *CSMA) schedule() {
	head := c.q.Peek()
	if head == nil {
		c.setState(Idle)
		return
	}
	c.setState(Backoff)
	k := 1 + c.Env.Rand.Intn(c.pol.Backoff(head.Dst))
	c.setTimer(sim.Duration(k)*c.Env.Cfg.Slot(), (*CSMA).attempt)
}

// attempt senses the carrier and transmits if the channel appears clear —
// the transmitter-side test whose inadequacy §2.2 demonstrates.
func (c *CSMA) attempt() {
	c.Fired()
	head := c.q.Peek()
	if head == nil {
		c.setState(Idle)
		return
	}
	if c.Env.Radio.CarrierBusy() {
		c.schedule()
		return
	}
	c.Out = frame.Frame{Type: frame.DATA, Src: c.Env.ID(), Dst: head.Dst, DataBytes: head.Size, Seq: head.Seq(), Payload: head.Payload}
	c.pol.StampSend(&c.Out)
	air := c.Transmit(&c.Out)
	c.setState(Sending)
	c.sending = head
	c.setTimer(air, (*CSMA).onDataAirDone)
}

// onDataAirDone fires when the DATA frame leaves the air: fire-and-forget
// completes immediately, an ACK-bearing exchange moves to WFACK.
func (c *CSMA) onDataAirDone() {
	c.Fired()
	head := c.sending
	c.sending = nil
	if !c.opt.ACK {
		c.finish(head)
		return
	}
	c.setState(WFACK)
	c.setTimer(c.Env.Cfg.Turnaround+c.Env.Cfg.CtrlTime()+c.Env.Cfg.Margin, (*CSMA).onACKTimeout)
}

// onAckAirDone fires when a returned ACK leaves the air.
func (c *CSMA) onAckAirDone() {
	c.Fired()
	c.schedule()
}

func (c *CSMA) finish(head *mac.Packet) {
	c.q.Pop()
	c.NoteQueue("pop", head.Dst, &c.q)
	c.retries = 0
	c.Counters.DataSent++
	c.Env.Callbacks.NotifySent(head)
	c.schedule()
}

func (c *CSMA) onACKTimeout() {
	if c.st != WFACK {
		return
	}
	c.Fired()
	c.pol.OnFailure(0)
	c.retries++
	if head := c.q.Peek(); head != nil {
		c.Retry(head.Dst)
		if c.retries > c.Env.Cfg.MaxRetries {
			c.q.Pop()
			c.NoteQueue("drop", head.Dst, &c.q)
			c.retries = 0
			c.pol.OnGiveUp(head.Dst)
			c.Drop(head, mac.DropRetries)
		}
	}
	c.schedule()
}

// RadioCarrier implements phy.Handler; the non-persistent variant polls the
// carrier at attempt time instead of reacting to edges.
func (c *CSMA) RadioCarrier(bool) {}

// RadioReceive implements phy.Handler.
func (c *CSMA) RadioReceive(f *frame.Frame) {
	if !c.Receive(f) {
		return
	}
	if f.Dst != c.Env.ID() {
		return
	}
	switch f.Type {
	case frame.DATA:
		c.Deliver(f)
		if c.opt.ACK && !c.Env.Radio.Transmitting() {
			c.Out = frame.Frame{Type: frame.ACK, Src: c.Env.ID(), Dst: f.Src, Seq: f.Seq}
			c.pol.StampSend(&c.Out)
			// The ACK may itself collide; CSMA has no protection.
			air := c.Transmit(&c.Out)
			c.Counters.ACKSent++
			c.setState(Sending)
			c.setTimer(air, (*CSMA).onAckAirDone)
		}
	case frame.ACK:
		if c.st != WFACK {
			return
		}
		head := c.q.Peek()
		if head == nil || head.Seq() != f.Seq {
			return
		}
		c.ClearTimer()
		c.pol.OnSuccess(f.Src)
		c.finish(head)
	}
}

// BackoffPolicy exposes the live policy for barrier-time retuning (sweep
// deltas).
func (c *CSMA) BackoffPolicy() backoff.Policy { return c.pol }

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// failed attempt.
func (c *CSMA) SetMaxRetries(n int) { c.Env.Cfg.MaxRetries = n }

// Package maca implements the original MACA media access protocol exactly
// as specified in Appendix A of the paper: an RTS-CTS-DATA exchange driven
// by a five-state machine (IDLE, CONTEND, WFCTS, WFData, QUIET), a single
// FIFO queue, a single backoff counter, and binary exponential backoff.
package maca

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// State is a MACA protocol state (Appendix A: "A pad running MACA can be in
// one of five states").
type State int

// The five MACA states plus the transient data-transmission phase.
const (
	Idle State = iota
	Contend
	WFCTS
	WFData
	Quiet
	// SendData covers the interval during which the station radiates its
	// DATA packet; Appendix A folds this into the IDLE transition, but a
	// distinct state keeps the engine from contending mid-transmission.
	SendData
)

var stateNames = [...]string{"IDLE", "CONTEND", "WFCTS", "WFDATA", "QUIET", "SENDDATA"}

// String returns the Appendix A state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Option configures a MACA instance.
type Option func(*MACA)

// WithPolicy overrides the backoff policy (default: single-counter BEB
// without copying, the paper's original MACA).
func WithPolicy(p backoff.Policy) Option { return func(m *MACA) { m.pol = p } }

// MACA is one station's protocol instance.
type MACA struct {
	mac.Base
	pol backoff.Policy

	st         State
	q          mac.Queue
	retries    int
	deferUntil sim.Time
	curDst     frame.NodeID // destination of the exchange in flight
	expectFrom frame.NodeID // sender we issued a CTS to (WFData)
	// sending is the packet on the air during SendData; it is popped off
	// the queue when the DATA frame starts and completed by onDataSent.
	sending *mac.Packet
}

// New returns a MACA instance bound to env's radio. It installs itself as
// the radio's handler.
func New(env *mac.Env, opts ...Option) *MACA {
	m, ok := mac.TakeSpare[*MACA](env)
	if !ok {
		m = new(MACA)
	}
	*m = MACA{Base: mac.Base{Env: env}, pol: backoff.NewSingle(backoff.NewBEB(), false), q: mac.NewQueue(env.Blocks)}
	for _, o := range opts {
		o(m)
	}
	env.Radio.SetHandler(m)
	return m
}

// State returns the current protocol state, for tests and traces.
func (m *MACA) State() State { return m.st }

// FSMState implements mac.Engine.
func (m *MACA) FSMState() string { return m.st.String() }

// Halt implements mac.Engine.
func (m *MACA) Halt() {
	if !m.BeginHalt() {
		return
	}
	m.st = Idle
	m.deferUntil = 0
	m.sending = nil
	m.DrainQueue(&m.q)
}

// Protocol implements mac.Engine.
func (m *MACA) Protocol() string { return "maca" }

// QueueLen implements mac.MAC.
func (m *MACA) QueueLen() int { return m.q.Len() }

// Enqueue implements mac.MAC: Control rule 1 — "When A is in IDLE state and
// wants to transmit a data packet to B, it sets a random timer and goes to
// the CONTEND state."
func (m *MACA) Enqueue(p *mac.Packet) {
	if !m.Admit(p) {
		return
	}
	m.q.Push(p)
	m.NoteQueue("push", p.Dst, &m.q)
	if m.st == Idle {
		m.enterContend()
	}
}

func (m *MACA) setTimer(d sim.Duration, fn func(*MACA)) {
	m.setTimerAt(m.Env.Sim.Now()+d, fn)
}

// setTimerAt arms the state timer for fn, a method expression.
func (m *MACA) setTimerAt(t sim.Time, fn func(*MACA)) { m.ArmAt(t, sim.Call[*MACA], m, fn) }

// setState moves the FSM to s.
func (m *MACA) setState(s State) {
	if s != m.st {
		m.NoteState(m.st.String(), s.String())
	}
	m.st = s
}

// enterContend schedules the next RTS attempt "an integer number of slot
// times after the end of the last defer period", the integer drawn uniformly
// from 1..BO.
func (m *MACA) enterContend() {
	head := m.q.Peek()
	if head == nil {
		m.setState(Idle)
		return
	}
	m.setState(Contend)
	base := m.Env.Sim.Now()
	if m.deferUntil > base {
		base = m.deferUntil
	}
	bo := m.pol.Backoff(head.Dst)
	k := 1 + m.Env.Rand.Intn(bo)
	m.setTimerAt(base+sim.Duration(k)*m.Env.Cfg.Slot(), (*MACA).onContendTimeout)
}

// onContendTimeout is Timeout rule 1: transmit the RTS and wait for the CTS.
func (m *MACA) onContendTimeout() {
	head := m.q.Peek()
	if m.st != Contend || head == nil {
		return
	}
	if m.deferUntil+m.Env.Cfg.Slot() > m.Env.Sim.Now() {
		// §3.2 / Appendix A: transmission begins an integer number of
		// slot times — at least one — after the end of the last defer
		// period. Contention draws already guarantee this (base + k·slot
		// with k ≥ 1 and base ≥ deferUntil); the redraw is a hardening
		// backstop for a horizon that moved under an armed timer.
		m.enterContend()
		return
	}
	m.Out = frame.Frame{Type: frame.RTS, Src: m.Env.ID(), Dst: head.Dst, DataBytes: head.Size, Seq: head.Seq()}
	m.pol.StampSend(&m.Out)
	air := m.Transmit(&m.Out)
	m.Counters.RTSSent++
	m.curDst = head.Dst
	m.setState(WFCTS)
	m.setTimer(air+m.Env.Cfg.CTSWait(), (*MACA).onCTSTimeout)
}

// onCTSTimeout handles a lost RTS-CTS exchange: back off and retry, or give
// up past the retry limit.
func (m *MACA) onCTSTimeout() {
	if m.st != WFCTS {
		return
	}
	m.Fired()
	m.failAttempt()
}

func (m *MACA) failAttempt() {
	head := m.q.Peek()
	m.pol.OnFailure(m.curDst)
	m.retries++
	m.Retry(m.curDst)
	if head != nil && m.retries > m.Env.Cfg.MaxRetries {
		m.q.Pop()
		m.NoteQueue("drop", head.Dst, &m.q)
		m.retries = 0
		m.pol.OnGiveUp(head.Dst)
		m.Drop(head, mac.DropRetries)
	}
	m.next()
}

// next returns to IDLE or starts contending for the next queued packet.
func (m *MACA) next() {
	if m.q.Len() > 0 {
		m.enterContend()
	} else {
		m.setState(Idle)
	}
}

// enterQuiet is the Defer rules' QUIET transition. From WFCTS and WFData the
// pending exchange keeps its timer (the defer horizon still advances), since
// abandoning a half-completed exchange would deadlock both parties; Appendix
// A's precedence note is interpreted as applying to contention states.
func (m *MACA) enterQuiet(d sim.Duration) {
	until := m.Env.Sim.Now() + d
	if until > m.deferUntil {
		m.deferUntil = until
	}
	switch m.st {
	case Idle, Contend:
		m.setState(Quiet)
		m.setTimer(m.deferUntil-m.Env.Sim.Now(), (*MACA).onQuietEnd)
	case Quiet:
		m.setTimer(m.deferUntil-m.Env.Sim.Now(), (*MACA).onQuietEnd)
	case WFCTS, WFData, SendData:
		// Keep the exchange; deferUntil constrains future contention.
	}
}

func (m *MACA) onQuietEnd() {
	if m.st != Quiet {
		return
	}
	m.Fired()
	if m.deferUntil > m.Env.Sim.Now() {
		m.setTimer(m.deferUntil-m.Env.Sim.Now(), (*MACA).onQuietEnd)
		return
	}
	m.next()
}

// RadioCarrier implements phy.Handler; MACA does not sense carrier.
func (m *MACA) RadioCarrier(bool) {}

// RadioReceive implements phy.Handler.
func (m *MACA) RadioReceive(f *frame.Frame) {
	if !m.Receive(f) {
		return
	}
	if f.Dst == m.Env.ID() {
		m.receiveForMe(f)
		return
	}
	m.pol.OnOverhear(f)
	switch f.Type {
	case frame.RTS:
		// Defer rule 1: long enough for the sender to hear the CTS.
		// Defer spans carry no margin so that all stations' contention
		// grids stay anchored to the exact frame boundaries.
		m.enterQuiet(m.Env.Cfg.Turnaround + m.Env.Cfg.CtrlTime())
	case frame.CTS:
		// Defer rule 2: long enough for the data transmission.
		m.enterQuiet(m.Env.Cfg.Turnaround + m.Env.Cfg.DataTime(int(f.DataBytes)))
	}
}

func (m *MACA) receiveForMe(f *frame.Frame) {
	m.pol.OnReceive(f)
	switch f.Type {
	case frame.RTS:
		// Control rules 2 and 5: reply with a CTS from IDLE or
		// CONTEND — but only "if it is not currently deferring",
		// whatever state the FSM occupies.
		if (m.st != Idle && m.st != Contend) || m.deferUntil > m.Env.Sim.Now() {
			return
		}
		m.ClearTimer()
		m.Out = frame.Frame{Type: frame.CTS, Src: m.Env.ID(), Dst: f.Src, DataBytes: f.DataBytes, Seq: f.Seq}
		m.pol.StampSend(&m.Out)
		air := m.Transmit(&m.Out)
		m.Counters.CTSSent++
		m.expectFrom = f.Src
		m.setState(WFData)
		m.setTimer(air+m.Env.Cfg.Turnaround+m.Env.Cfg.DataTime(int(f.DataBytes))+m.Env.Cfg.Margin, (*MACA).onTimeoutToIdle)
	case frame.CTS:
		// Control rule 3: send the data.
		if m.st != WFCTS || f.Src != m.curDst {
			return
		}
		m.ClearTimer()
		m.pol.OnSuccess(m.curDst)
		m.retries = 0
		head := m.q.Pop()
		m.NoteQueue("pop", head.Dst, &m.q)
		m.Out = frame.Frame{Type: frame.DATA, Src: m.Env.ID(), Dst: head.Dst, DataBytes: head.Size, Seq: head.Seq(), Payload: head.Payload}
		m.pol.StampSend(&m.Out)
		air := m.Transmit(&m.Out)
		m.setState(SendData)
		m.sending = head
		m.setTimer(air, (*MACA).onDataSent)
	case frame.DATA:
		// Control rule 4.
		if m.st == WFData && f.Src == m.expectFrom {
			m.ClearTimer()
			m.Deliver(f)
			m.next()
			return
		}
		// A data packet that arrives outside WFData is still data.
		m.Deliver(f)
	}
}

// onDataSent completes the DATA transmission started by the CTS: the packet
// held in sending is reported sent and the station moves on.
func (m *MACA) onDataSent() {
	m.Fired()
	head := m.sending
	m.sending = nil
	m.Counters.DataSent++
	m.Env.Callbacks.NotifySent(head)
	m.next()
}

// onTimeoutToIdle is Timeout rule 2: "From any other state, when a timer
// expires, a station goes to the IDLE state."
func (m *MACA) onTimeoutToIdle() {
	m.Fired()
	m.next()
}

// BackoffPolicy exposes the live policy for barrier-time retuning (sweep
// deltas).
func (m *MACA) BackoffPolicy() backoff.Policy { return m.pol }

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// failed attempt.
func (m *MACA) SetMaxRetries(n int) { m.Env.Cfg.MaxRetries = n }

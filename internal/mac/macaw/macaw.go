// Package macaw implements the MACAW media access protocol of Appendix B:
// the RTS-CTS-DS-DATA-ACK message exchange, the RRTS receiver-initiated
// contention, per-stream queues, and pluggable backoff policies.
//
// Every §3 design increment is a configuration toggle rather than a fork, so
// the paper's ablation tables are reproducible from a single engine:
//
//   - Exchange selects RTS-CTS-DATA, RTS-CTS-DATA-ACK, or the full
//     RTS-CTS-DS-DATA-ACK pattern (§3.3.1, §3.3.2).
//   - RRTS enables receiver-initiated contention (§3.3.3).
//   - PerStream selects one queue per stream instead of a single FIFO
//     (§3.2).
//   - Policy selects the backoff algorithm and sharing scheme (§3.1, §3.4).
//
// Interpretation notes (see DESIGN.md §3): Appendix B's WFCONTEND state is
// merged into QUIET — both mean "defer until a known horizon, then contend" —
// and the RRTS sender waits in WFRTS (the text's "goes to WFDATA" only makes
// sense together with rule 12, which answers the returning RTS from WFRTS).
package macaw

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// Exchange selects the message exchange pattern.
type Exchange int

// Exchange patterns, in the order the paper develops them.
const (
	// Basic is the original RTS-CTS-DATA exchange.
	Basic Exchange = iota
	// WithACK adds the link-level acknowledgement (§3.3.1).
	WithACK
	// Full adds the DS announcement: RTS-CTS-DS-DATA-ACK (§3.3.2).
	Full
)

// String names the exchange pattern as the paper does.
func (e Exchange) String() string {
	switch e {
	case Basic:
		return "RTS-CTS-DATA"
	case WithACK:
		return "RTS-CTS-DATA-ACK"
	case Full:
		return "RTS-CTS-DS-DATA-ACK"
	}
	return fmt.Sprintf("Exchange(%d)", int(e))
}

// HasACK reports whether the pattern ends with a link-level ACK.
func (e Exchange) HasACK() bool { return e != Basic }

// HasDS reports whether the pattern announces data with a DS packet.
func (e Exchange) HasDS() bool { return e == Full }

// State is a MACAW protocol state (Appendix B lists ten; WFCONTEND is
// merged into QUIET, and SendData covers all local transmissions).
type State int

// MACAW states.
const (
	Idle State = iota
	Contend
	WFCTS
	SendData
	WFACK
	WFDS
	WFData
	WFRTS
	Quiet
)

var stateNames = [...]string{"IDLE", "CONTEND", "WFCTS", "SENDDATA", "WFACK", "WFDS", "WFDATA", "WFRTS", "QUIET"}

// String returns the Appendix B state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Options configures a MACAW instance.
type Options struct {
	// Exchange is the message exchange pattern.
	Exchange Exchange
	// RRTS enables the Request-for-Request-to-Send mechanism.
	RRTS bool
	// PerStream gives every destination its own queue and contention
	// timer; false reproduces the single-FIFO design of early §3.
	PerStream bool
	// Policy is the backoff policy; nil selects the full MACAW default,
	// per-destination MILD with copying.
	Policy backoff.Policy
	// NACK enables the §4 alternative in which a receiver that issued a
	// CTS but got no data returns a NACK, prompting an immediate
	// retransmission attempt.
	NACK bool
	// CarrierSense enables §3.3.2's alternative to the DS packet: "A
	// station must defer transmission until one slot time after it
	// detects no carrier (the inclusion of a single slot time of clear
	// air is to ensure that exposed terminals do not clobber the
	// returning ACK). This is essentially the CSMA/CA protocol."
	CarrierSense bool
	// PiggybackACK enables the §4 alternative acking scheme: a sender
	// with more packets queued for the destination clears the DATA
	// frame's ack-request bit and collects the acknowledgement from the
	// receiver's next CTS, which carries "the sequence number of the
	// most recently arrived packet". Only meaningful with an
	// ACK-carrying exchange.
	PiggybackACK bool
}

// DefaultOptions returns the full MACAW protocol as evaluated in §3.5.
func DefaultOptions() Options {
	return Options{Exchange: Full, RRTS: true, PerStream: true}
}

// contender identifies what a station is contending to send.
type contender struct {
	dst  frame.NodeID
	rrts bool
}

// peer is a station's record of one remote station, beside its backoff
// policy's. The zero record is that of a peer never written about.
type peer struct {
	attempts  int32  // RTS attempts for the head packet to the peer
	lastAcked uint32 // sequence number last delivered from the peer, if everAcked
	seenESN   uint32 // highest exchange number seen; a regression marks a reboot
	everAcked bool
}

// held is a data packet sent to a peer without an ack request, awaiting
// its piggybacked confirmation (§4), and how often it was retransmitted
// (see onCTS). It is kept apart from peer, which stays pointer-free and
// 16 bytes, as only the PiggybackACK option holds packets.
type held struct {
	pkt     *mac.Packet
	retries int32
}

// MACAW is one station's protocol instance.
type MACAW struct {
	mac.Base
	opt Options
	pol backoff.Policy

	st         State
	deferUntil sim.Time
	// carrierClearAt is the earliest transmission time permitted by the
	// CarrierSense option: one slot after the carrier last went quiet,
	// effectively unbounded while it is busy.
	carrierClearAt sim.Time

	// Queueing: streams when PerStream, fifo otherwise.
	streams *mac.StreamQueues
	fifo    mac.Queue
	// targets is contendTargets' scratch buffer, not protocol state.
	targets []frame.NodeID

	cur       contender    // what the contend timer is armed for
	curDst    frame.NodeID // destination of the exchange in flight
	expectSrc frame.NodeID // sender we issued a CTS/RRTS toward

	// txHead/txWantAck are the continuation state of the SendData timer:
	// the packet the frame on the air belongs to, and whether the DATA
	// frame requested an ACK.
	txHead    *mac.Packet
	txWantAck bool

	// rrtsFor is the first RTS sender we could not answer while
	// deferring ("it only responds to the first received RTS").
	rrtsFor frame.NodeID
	rrtsLen int
	hasRRTS bool
	// rrtsSeen is when the noted sender last retried; a note whose sender
	// has gone silent past its worst-case retry period is dropped at the
	// next fresh defer window instead of soliciting a dead station.
	rrtsSeen sim.Time
	// peers and pending are read through Value, so an unknown peer reads
	// as the zero record, and written through Add; no record pointer is
	// held across Drop or NotifySent, which re-enter the host.
	peers   frame.Peers[peer]
	pending frame.Peers[held]
}

// defaultStrategy is the default policy's strategy, MILD at the paper's
// bounds, converted to a Strategy once: a strategy is a value, and
// retuning a policy replaces its strategy rather than writing into it, so
// every default policy can share this one.
var defaultStrategy backoff.Strategy = backoff.NewMILD()

// New returns a MACAW instance bound to env's radio, installing itself as
// the radio handler. Built in a spare engine's record (see mac.Env.Spare),
// it keeps the spare's stream queues, peer tables and scratch slice, and
// its per-destination policy when it builds the default one, each emptied.
func New(env *mac.Env, opt Options) *MACAW {
	m, ok := mac.TakeSpare[*MACAW](env)
	if !ok {
		m = new(MACAW)
	}
	streams := m.streams
	if streams == nil {
		streams = mac.NewStreamQueues(env.Blocks)
	} else {
		streams.Reset(env.Blocks)
	}
	pol := opt.Policy
	if pol == nil {
		if pd, ok := m.pol.(*backoff.PerDest); ok {
			pd.Reset(defaultStrategy)
			pol = pd
		} else {
			pol = backoff.NewPerDest(defaultStrategy)
		}
	}
	m.peers.Reset()
	m.pending.Reset()
	*m = MACAW{
		Base:    mac.Base{Env: env},
		opt:     opt,
		pol:     pol,
		streams: streams,
		fifo:    mac.NewQueue(env.Blocks),
		targets: m.targets[:0],
		peers:   m.peers,
		pending: m.pending,
	}
	// Each lifetime numbers its packets from a random point (the TCP
	// initial-sequence-number argument): a rebooted station restarting
	// from 1 could collide with the dedup bookkeeping peers kept about its
	// previous life — an RTS whose (seq, ESN) pair happens to equal an
	// already-acknowledged exchange draws a spurious repeated ACK and the
	// new packet is silently lost. The ESN-regression resync in
	// receiveForMe catches most reboots from the headers alone, but an
	// exact collision is indistinguishable there; randomizing the origin
	// makes it vanishingly unlikely.
	m.Seq = env.Rand.Uint32() & 0x3fffffff
	env.Radio.SetHandler(m)
	return m
}

// State returns the current protocol state.
func (m *MACAW) State() State { return m.st }

// DeferUntil returns the current defer horizon (introspection for tests and
// traces).
func (m *MACAW) DeferUntil() sim.Time { return m.deferUntil }

// FSMState implements mac.Engine.
func (m *MACAW) FSMState() string { return m.st.String() }

// Halt implements mac.Engine: the tentatively-completed packets awaiting a
// piggybacked ACK are dropped along with the queues.
func (m *MACAW) Halt() {
	if !m.BeginHalt() {
		return
	}
	m.st = Idle
	m.hasRRTS = false
	m.deferUntil = 0
	m.txHead, m.txWantAck = nil, false
	if m.opt.PerStream {
		for _, d := range m.streams.Destinations() {
			m.DrainQueue(m.streams.Queue(d))
		}
	} else {
		m.DrainQueue(&m.fifo)
	}
	// Pending piggyback packets die with the station too, in peer order.
	for i := 0; i < m.pending.Len(); i++ {
		if _, h := m.pending.At(i); h.pkt != nil {
			p := h.pkt
			h.pkt = nil
			m.Drop(p, mac.DropDisabled)
		}
	}
}

// Protocol implements mac.Engine.
func (m *MACAW) Protocol() string { return "macaw" }

// Options returns the configured options.
func (m *MACAW) Options() Options { return m.opt }

// QueueLen implements mac.MAC.
func (m *MACAW) QueueLen() int {
	if m.opt.PerStream {
		return m.streams.TotalLen()
	}
	return m.fifo.Len()
}

// queueFor returns the queue holding packets for dst.
func (m *MACAW) queueFor(dst frame.NodeID) *mac.Queue {
	if m.opt.PerStream {
		return m.streams.Queue(dst)
	}
	return &m.fifo
}

// head returns the packet an RTS toward dst would announce.
func (m *MACAW) head(dst frame.NodeID) *mac.Packet {
	q := m.queueFor(dst)
	if q == nil {
		return nil
	}
	p := q.Peek()
	if p == nil || (!m.opt.PerStream && p.Dst != dst) {
		return nil
	}
	return p
}

// Enqueue implements mac.MAC.
func (m *MACAW) Enqueue(p *mac.Packet) {
	if !m.Admit(p) {
		return
	}
	if m.opt.PerStream {
		m.streams.Push(p)
	} else {
		m.fifo.Push(p)
	}
	q := m.queueFor(p.Dst)
	m.NoteQueue("push", p.Dst, q)
	switch m.st {
	case Idle:
		m.enterContend()
	case Contend:
		// Let a newly-busy stream join the contention without
		// redrawing the others (a full redraw on every enqueue would
		// systematically postpone transmission — the inspection
		// paradox).
		if q.Len() == 1 {
			m.considerContender(contender{dst: p.Dst})
		}
	}
}

// considerContender draws a retry slot for c and re-arms the contention
// timer if c's slot precedes the currently armed one.
func (m *MACAW) considerContender(c contender) {
	base := m.Env.Sim.Now()
	if m.deferUntil > base {
		base = m.deferUntil
	}
	k := 1 + m.Env.Rand.Intn(m.pol.Backoff(c.dst))
	at := base + sim.Duration(k)*m.Env.Cfg.Slot()
	if w := m.TimerWhen(); w < 0 || at < w {
		m.cur = c
		m.setTimerAt(at, (*MACAW).onContendTimeout)
	}
}

func (m *MACAW) setTimer(d sim.Duration, fn func(*MACAW)) {
	m.setTimerAt(m.Env.Sim.Now()+d, fn)
}

// setTimerAt arms the state timer for fn, a method expression.
func (m *MACAW) setTimerAt(t sim.Time, fn func(*MACAW)) { m.ArmAt(t, sim.Call[*MACAW], m, fn) }

// setState moves the FSM to s.
func (m *MACAW) setState(s State) {
	if s != m.st {
		m.NoteState(m.st.String(), s.String())
	}
	m.st = s
}

// contendTargets lists the destinations with pending work. The result
// aliases a scratch buffer reused by the next call.
func (m *MACAW) contendTargets() []frame.NodeID {
	m.targets = m.targets[:0]
	if m.opt.PerStream {
		m.targets = m.streams.NonEmpty(m.targets)
	} else if p := m.fifo.Peek(); p != nil {
		m.targets = append(m.targets, p.Dst)
	}
	return m.targets
}

// enterContend draws a retry slot for every pending stream (and a pending
// RRTS) and arms the timer for the earliest — §3.2: "a random delay interval
// is chosen for each stream and the stream with the earliest retry slot is
// chosen for transmission".
func (m *MACAW) enterContend() {
	targets := m.contendTargets()
	if len(targets) == 0 && !m.hasRRTS {
		if m.deferring() {
			// Nothing to send, but a defer period is still running:
			// stay QUIET so arriving RTSes are answered with an
			// RRTS later rather than a mid-exchange CTS.
			m.setState(Quiet)
			m.setTimerAt(m.deferUntil, (*MACAW).onQuietEnd)
			return
		}
		m.setState(Idle)
		m.ClearTimer()
		return
	}
	m.setState(Contend)
	base := m.Env.Sim.Now()
	if m.deferUntil > base {
		base = m.deferUntil
	}
	if hold := m.carrierHold(); hold > base && hold != maxTime {
		base = hold
	}
	slot := m.Env.Cfg.Slot()
	var best sim.Time = -1
	var pick contender
	ties := 0
	draw := func(c contender) {
		k := 1 + m.Env.Rand.Intn(m.pol.Backoff(c.dst))
		at := base + sim.Duration(k)*slot
		switch {
		case best < 0 || at < best:
			best = at
			pick = c
			ties = 1
		case at == best:
			// Reservoir-sample among equal draws so stream order
			// confers no systematic service advantage.
			ties++
			if m.Env.Rand.Intn(ties) == 0 {
				pick = c
			}
		}
	}
	if m.hasRRTS {
		draw(contender{dst: m.rrtsFor, rrts: true})
	}
	for _, d := range targets {
		draw(contender{dst: d})
	}
	m.cur = pick
	m.setTimerAt(best, (*MACAW).onContendTimeout)
}

// onContendTimeout transmits the RTS (or RRTS) the station contended for
// (Appendix B timeout rule 2).
func (m *MACAW) onContendTimeout() {
	if m.st != Contend {
		return
	}
	m.Fired()
	if m.deferUntil+m.Env.Cfg.Slot() > m.Env.Sim.Now() {
		// §3.2: a transmission must begin an integer number of slot
		// times — at least one — after the end of the last defer
		// period. Contention draws always satisfy this (every draw is
		// base + k·slot with k ≥ 1 and base ≥ deferUntil), so this
		// redraw is a hardening backstop: if the horizon ever moved
		// under an armed timer, firing within a slot of it would break
		// the slotted collision-avoidance grid.
		m.enterContend()
		return
	}
	if hold := m.carrierHold(); hold > m.Env.Sim.Now() {
		if hold == maxTime {
			// The carrier is busy: wait for it to clear, then
			// redraw from the cleared instant.
			m.setState(Quiet)
			m.setTimer(m.Env.Cfg.Slot(), (*MACAW).onQuietEnd)
			return
		}
		m.enterContend()
		return
	}
	if m.cur.rrts {
		m.sendRRTS()
		return
	}
	head := m.head(m.cur.dst)
	if head == nil {
		m.enterContend()
		return
	}
	if head.Dst == frame.Broadcast {
		m.sendMulticast(head)
		return
	}
	if m.peers.Value(head.Dst).attempts == 0 {
		m.pol.StartExchange(head.Dst)
	}
	m.Out = frame.Frame{Type: frame.RTS, Src: m.Env.ID(), Dst: head.Dst, DataBytes: head.Size, Seq: head.Seq()}
	m.pol.StampSend(&m.Out)
	air := m.Transmit(&m.Out)
	m.Counters.RTSSent++
	m.curDst = head.Dst
	m.setState(WFCTS)
	m.setTimer(air+m.Env.Cfg.CTSWait(), (*MACAW).onCTSTimeout)
}

// sendRRTS contends on behalf of a blocked sender (§3.3.3).
func (m *MACAW) sendRRTS() {
	dst, n := m.rrtsFor, m.rrtsLen
	m.hasRRTS = false
	m.Out = frame.Frame{Type: frame.RRTS, Src: m.Env.ID(), Dst: dst, DataBytes: uint16(n)}
	m.pol.StampSend(&m.Out)
	air := m.Transmit(&m.Out)
	m.Counters.RRTSSent++
	m.expectSrc = dst
	m.setState(WFRTS)
	// Long enough for the answering RTS to arrive.
	m.setTimer(air+m.Env.Cfg.Turnaround+m.Env.Cfg.CtrlTime()+m.Env.Cfg.Margin, (*MACAW).onExpectTimeout)
}

// sendMulticast performs the §3.3.4 multicast exchange: an RTS immediately
// followed by the DATA packet, with no CTS.
func (m *MACAW) sendMulticast(head *mac.Packet) {
	m.Out = frame.Frame{Type: frame.RTS, Src: m.Env.ID(), Dst: frame.Broadcast, DataBytes: head.Size, Seq: head.Seq(), Multicast: true}
	m.pol.StampSend(&m.Out)
	air := m.Transmit(&m.Out)
	m.Counters.RTSSent++
	m.setState(SendData)
	m.txHead = head
	m.setTimer(air, (*MACAW).onMcastRTSSent)
}

// onMcastRTSSent follows the multicast RTS with the DATA packet itself.
func (m *MACAW) onMcastRTSSent() {
	m.Fired()
	head := m.txHead
	m.Out = frame.Frame{Type: frame.DATA, Src: m.Env.ID(), Dst: frame.Broadcast, DataBytes: head.Size, Seq: head.Seq(), Multicast: true, Payload: head.Payload}
	m.pol.StampSend(&m.Out)
	dair := m.Transmit(&m.Out)
	m.setTimer(dair, (*MACAW).onMcastDataSent)
}

// onMcastDataSent completes the multicast exchange.
func (m *MACAW) onMcastDataSent() {
	m.Fired()
	head := m.txHead
	m.txHead = nil
	q := m.queueFor(frame.Broadcast)
	q.Pop()
	m.NoteQueue("pop", frame.Broadcast, q)
	m.Counters.DataSent++
	m.Env.Callbacks.NotifySent(head)
	m.next()
}

// onCTSTimeout handles an RTS that evoked no CTS (or ACK): the failure is
// charged to the destination's backoff and the packet retried or dropped.
func (m *MACAW) onCTSTimeout() {
	if m.st != WFCTS {
		return
	}
	m.Fired()
	m.pol.OnFailure(m.curDst)
	m.Retry(m.curDst)
	m.bumpAttempts(m.curDst)
	m.next()
}

// bumpAttempts increments the per-destination attempt counter, dropping the
// head packet once the retry limit is exceeded.
func (m *MACAW) bumpAttempts(dst frame.NodeID) {
	pe := m.peers.Add(dst)
	pe.attempts++
	if int(pe.attempts) <= m.Env.Cfg.MaxRetries {
		return
	}
	pe.attempts = 0
	if q := m.queueFor(dst); q != nil {
		if p := q.Peek(); p != nil && p.Dst == dst {
			q.Pop()
			m.NoteQueue("drop", dst, q)
			m.pol.OnGiveUp(dst)
			m.Drop(p, mac.DropRetries)
		}
		if p := m.pending.Value(dst).pkt; p != nil {
			// An unconfirmed piggyback packet cannot stay in limbo
			// once its successor is gone; retransmit it normally.
			m.pending.Add(dst).pkt = nil
			q.PushFront(p)
			m.NoteQueue("push", dst, q)
		}
	}
}

// next resumes contention for remaining work or returns to IDLE.
func (m *MACAW) next() { m.enterContend() }

// rrtsStale bounds how long a noted-but-unserved RTS stays eligible for an
// RRTS. A live blocked sender retries within its CTS timeout plus its
// contention draw — at most the doubled per-destination window of 2·BOmax
// slots (§3.4) — so doubling that span keeps a sender whose retries are
// merely slow while letting the invitation for a crashed or departed one die
// at the next fresh defer window.
func (m *MACAW) rrtsStale() sim.Duration {
	return 2 * (m.Env.Cfg.CTSWait() + sim.Duration(2*backoff.DefaultMax)*m.Env.Cfg.Slot())
}

// enterQuiet extends the defer horizon and (when not mid-exchange) moves to
// QUIET. QUIET absorbs Appendix B's WFCONTEND: when the horizon passes the
// station contends for pending work.
func (m *MACAW) enterQuiet(d sim.Duration) {
	if m.hasRRTS && !m.deferring() && m.Env.Sim.Now()-m.rrtsSeen > m.rrtsStale() {
		// A fresh defer window is opening and the noted sender has been
		// silent for longer than its worst-case retry period: it either
		// crashed or went away, so an RRTS would solicit a station with
		// nothing pending. Drop the invitation; a live sender's next RTS
		// re-arms it (§3.3.3).
		m.hasRRTS = false
	}
	until := m.Env.Sim.Now() + d
	if until > m.deferUntil {
		m.deferUntil = until
	}
	switch m.st {
	case Idle, Contend, Quiet:
		m.setState(Quiet)
		m.setTimerAt(m.deferUntil, (*MACAW).onQuietEnd)
	default:
		// Mid-exchange states keep their timers; the advanced horizon
		// constrains the next contention.
	}
}

func (m *MACAW) onQuietEnd() {
	if m.st != Quiet {
		return
	}
	m.Fired()
	if m.deferUntil > m.Env.Sim.Now() {
		m.setTimerAt(m.deferUntil, (*MACAW).onQuietEnd)
		return
	}
	if hold := m.carrierHold(); hold == maxTime {
		// Still carrier-busy: poll again a slot later (the carrier
		// callback cannot restart a cancelled timer for us).
		m.setTimer(m.Env.Cfg.Slot(), (*MACAW).onQuietEnd)
		return
	}
	m.next()
}

// onExpectTimeout covers WFRTS/WFDS/WFData expiries: Appendix B timeout
// rule 3 — "From any other state, when a timer expires, a station goes to
// the IDLE state."
func (m *MACAW) onExpectTimeout() {
	m.Fired()
	if m.opt.NACK && m.st == WFData {
		// §4: tell the sender its data never arrived.
		m.Out = frame.Frame{Type: frame.NACK, Src: m.Env.ID(), Dst: m.expectSrc}
		m.pol.StampSend(&m.Out)
		air := m.Transmit(&m.Out)
		m.expectSrc = 0
		m.setState(SendData)
		m.setTimer(air, (*MACAW).onCtrlSent)
		return
	}
	// The expected peer never followed through; forget it so no later
	// path can mistake a stale expectation for a live exchange.
	m.expectSrc = 0
	m.next()
}

// RadioCarrier implements phy.Handler. The default MACAW avoids carrier
// sense, using the DS packet instead (§3.3.2); with the CarrierSense option
// the station holds its transmissions until one slot after the carrier
// clears.
func (m *MACAW) RadioCarrier(busy bool) {
	if m.Halted() || !m.opt.CarrierSense {
		return
	}
	if busy {
		m.carrierClearAt = maxTime
		return
	}
	m.carrierClearAt = m.Env.Sim.Now() + m.Env.Cfg.Slot()
}

// maxTime is far beyond any simulated horizon.
const maxTime = sim.Time(1) << 62

// carrierHold returns the earliest time the CarrierSense option allows a
// transmission, or 0 when the option is off or the air is clear. A stale
// busy indication (the clear transition was never delivered) is
// resynchronized against the radio's live carrier state so a lost callback
// cannot park the station forever.
func (m *MACAW) carrierHold() sim.Time {
	if !m.opt.CarrierSense {
		return 0
	}
	if m.carrierClearAt == maxTime && !m.Env.Radio.CarrierBusy() {
		m.carrierClearAt = m.Env.Sim.Now() + m.Env.Cfg.Slot()
	}
	return m.carrierClearAt
}

// dataPlusAck is the defer span covering a data packet of the given size
// plus the returning ACK when the exchange uses one. Defer spans carry no
// scheduling margin: every station's contention grid must stay anchored to
// the exact frame boundaries or the slotted retransmission discipline
// ("an integer number of slot times after the end of the last defer
// period") loses its collision-avoidance property.
func (m *MACAW) dataPlusAck(dataBytes int) sim.Duration {
	d := m.Env.Cfg.Turnaround + m.Env.Cfg.DataTime(dataBytes)
	if m.opt.Exchange.HasACK() {
		d += m.Env.Cfg.Turnaround + m.Env.Cfg.CtrlTime()
	}
	return d
}

// RadioReceive implements phy.Handler.
func (m *MACAW) RadioReceive(f *frame.Frame) {
	if !m.Receive(f) {
		return
	}
	if f.Dst == m.Env.ID() {
		m.receiveForMe(f)
		return
	}
	if f.Dst == frame.Broadcast {
		m.receiveMulticast(f)
		return
	}
	m.pol.OnOverhear(f)
	switch f.Type {
	case frame.RTS:
		// Defer rule: long enough for the sender to hear the CTS.
		m.enterQuiet(m.Env.Cfg.Turnaround + m.Env.Cfg.CtrlTime())
	case frame.CTS:
		// Defer rule 3: long enough for the receiver to hear the data
		// (plus DS and ACK as configured).
		d := m.dataPlusAck(int(f.DataBytes))
		if m.opt.Exchange.HasDS() {
			d += m.Env.Cfg.Turnaround + m.Env.Cfg.CtrlTime()
		}
		m.enterQuiet(d)
	case frame.DS:
		// Defer rule 2: through the data packet and its ACK.
		m.enterQuiet(m.dataPlusAck(int(f.DataBytes)))
	case frame.RRTS:
		// Defer rule 4: "sufficient for an RTS-CTS exchange".
		m.enterQuiet(2 * (m.Env.Cfg.Turnaround + m.Env.Cfg.CtrlTime()))
	}
}

// receiveMulticast handles frames addressed to the broadcast group.
func (m *MACAW) receiveMulticast(f *frame.Frame) {
	m.pol.OnOverhear(f)
	switch f.Type {
	case frame.RTS:
		// "All stations defer for the length of the following DATA
		// transmission" (§3.3.4).
		m.enterQuiet(m.Env.Cfg.Turnaround + m.Env.Cfg.DataTime(int(f.DataBytes)))
	case frame.DATA:
		m.Deliver(f)
	}
}

func (m *MACAW) receiveForMe(f *frame.Frame) {
	pe := m.peers.Add(f.Src)
	if f.ESN < pe.seenESN {
		// Exchange numbers only grow within one lifetime of the peer and
		// per-sender delivery is ordered, so a smaller number means the
		// peer rebooted and is numbering from scratch. The dedup state the
		// dead instance earned is then poison: a new packet that happens
		// to reuse an acknowledged sequence number would be answered with
		// a spurious repeated ACK (control rule 7) and silently lost.
		// Resynchronize before acting on the frame.
		pe.everAcked, pe.lastAcked = false, 0
	}
	pe.seenESN = f.ESN
	m.pol.OnReceive(f)
	switch f.Type {
	case frame.RTS:
		m.onRTS(f)
	case frame.CTS:
		m.onCTS(f)
	case frame.DS:
		m.onDS(f)
	case frame.DATA:
		m.onData(f)
	case frame.ACK:
		m.onACK(f)
	case frame.RRTS:
		m.onRRTS(f)
	case frame.NACK:
		m.onNACK(f)
	}
}

// deferring reports whether the station's defer horizon is still ahead —
// MACA/MACAW receivers reply to an RTS only "if [they are] not currently
// deferring", regardless of which state the FSM happens to occupy.
func (m *MACAW) deferring() bool { return m.deferUntil > m.Env.Sim.Now() }

// onRTS answers an RTS addressed to this station.
func (m *MACAW) onRTS(f *frame.Frame) {
	switch m.st {
	case WFRTS:
		// Control rule 12: the solicited reply to our RRTS is part of
		// an exchange the RRTS already reserved slots for (overhearers
		// deferred two slots), so it is granted even if our own defer
		// horizon is still technically running.
		if f.Src == m.expectSrc {
			break
		}
		if m.deferring() {
			m.noteRRTS(f)
			return
		}
	case Idle, Contend:
		// Control rules 2 and 8 — unless a defer period is still
		// running (e.g. the station timed out of a broken exchange
		// while a neighbour's data transmission it must respect is
		// still in the air).
		if m.deferring() {
			m.noteRRTS(f)
			return
		}
	case Quiet:
		m.noteRRTS(f)
		return
	default:
		return
	}
	m.grantRTS(f)
}

// noteRRTS remembers the first RTS received while deferring so the station
// can contend with an RRTS on the sender's behalf (§3.3.3: "it only
// responds to the first received RTS").
func (m *MACAW) noteRRTS(f *frame.Frame) {
	if !m.opt.RRTS {
		return
	}
	if !m.hasRRTS {
		m.hasRRTS = true
		m.rrtsFor = f.Src
	}
	if f.Src == m.rrtsFor {
		// Each retry from the noted sender proves it is still alive and
		// still blocked; refresh the note's liveness stamp.
		m.rrtsSeen = m.Env.Sim.Now()
		m.rrtsLen = int(f.DataBytes)
	}
}

// grantRTS answers an RTS with a CTS (or a repeated ACK).
func (m *MACAW) grantRTS(f *frame.Frame) {
	if m.hasRRTS && m.rrtsFor == f.Src {
		// The sender we noted for an RRTS retried on its own and is
		// being answered right now: the invitation is satisfied. Left
		// armed, it would fire after this exchange completes and solicit
		// a transmission the sender no longer has pending (§3.3.3 pairs
		// each RRTS with one unanswered RTS).
		m.hasRRTS = false
	}
	// Control rule 7: an RTS for the packet acknowledged last time gets
	// the ACK again instead of a CTS.
	pe := m.peers.Value(f.Src)
	if m.opt.Exchange.HasACK() && pe.everAcked && pe.lastAcked == f.Seq {
		m.ClearTimer()
		m.sendAck(f.Src, f.Seq)
		return
	}
	m.ClearTimer()
	m.Out = frame.Frame{Type: frame.CTS, Src: m.Env.ID(), Dst: f.Src, DataBytes: f.DataBytes, Seq: f.Seq}
	if m.opt.PiggybackACK && pe.everAcked {
		m.Out.HasAck = true
		m.Out.Ack = pe.lastAcked
	}
	m.pol.StampSend(&m.Out)
	air := m.Transmit(&m.Out)
	m.Counters.CTSSent++
	m.expectSrc = f.Src
	if m.opt.Exchange.HasDS() {
		m.setState(WFDS)
		m.setTimer(air+m.Env.Cfg.Turnaround+m.Env.Cfg.CtrlTime()+m.Env.Cfg.Margin, (*MACAW).onExpectTimeout)
	} else {
		m.setState(WFData)
		m.setTimer(air+m.Env.Cfg.Turnaround+m.Env.Cfg.DataTime(int(f.DataBytes))+m.Env.Cfg.Margin, (*MACAW).onExpectTimeout)
	}
}

// onCTS starts the data phase (control rule 3).
func (m *MACAW) onCTS(f *frame.Frame) {
	if m.st != WFCTS || f.Src != m.curDst {
		return
	}
	m.ClearTimer()
	if p := m.pending.Value(f.Src).pkt; p != nil {
		h := m.pending.Add(f.Src)
		h.pkt = nil
		if f.HasAck && f.Ack >= p.Seq() {
			// Piggybacked confirmation of the previous packet.
			h.retries = 0
			m.pol.OnSuccess(f.Src)
			m.Env.Callbacks.NotifySent(p)
		} else {
			// The previous packet never arrived: abandon this
			// exchange (the receiver's WFDS will time out) and
			// retransmit the lost packet first. The retransmission
			// must count against its own retry budget: the RTS-CTS
			// leg succeeds on every lap of this loop, so the
			// ordinary attempt counter (reset by each tentative
			// completion) can never bound it, and a link whose data
			// direction is dead would otherwise retry forever.
			m.Retry(f.Src)
			h.retries++
			if int(h.retries) > m.Env.Cfg.MaxRetries {
				h.retries = 0
				m.pol.OnGiveUp(f.Src)
				m.Drop(p, mac.DropRetries)
			} else if q := m.queueFor(f.Src); q != nil {
				q.PushFront(p)
				m.NoteQueue("push", f.Src, q)
			}
			m.next()
			return
		}
	}
	head := m.head(m.curDst)
	if head == nil {
		m.next()
		return
	}
	if !m.opt.Exchange.HasACK() {
		// Without a link-level ACK the successful RTS-CTS exchange is
		// the success signal (MACA semantics).
		m.pol.OnSuccess(m.curDst)
	}
	if m.opt.Exchange.HasDS() {
		m.Out = frame.Frame{Type: frame.DS, Src: m.Env.ID(), Dst: m.curDst, DataBytes: head.Size, Seq: head.Seq()}
		m.pol.StampSend(&m.Out)
		air := m.Transmit(&m.Out)
		m.Counters.DSSent++
		m.setState(SendData)
		m.txHead = head
		m.setTimer(air, (*MACAW).onDSSent)
	} else {
		m.setState(SendData)
		m.sendData(head)
	}
}

// sendData transmits the head packet's DATA frame back-to-back after the
// CTS (or DS) and arms the ACK timer when the exchange uses one. In
// piggyback mode a sender with more packets queued clears the ack-request
// bit and defers confirmation to the destination's next CTS (§4).
func (m *MACAW) sendData(head *mac.Packet) {
	wantAck := m.opt.Exchange.HasACK()
	if wantAck && m.opt.PiggybackACK && m.pending.Value(head.Dst).pkt == nil {
		if q := m.queueFor(head.Dst); q != nil && q.Len() > 1 {
			wantAck = false
		}
	}
	m.Out = frame.Frame{Type: frame.DATA, Src: m.Env.ID(), Dst: head.Dst, DataBytes: head.Size, Seq: head.Seq(), Payload: head.Payload, AckRequested: wantAck}
	m.pol.StampSend(&m.Out)
	air := m.Transmit(&m.Out)
	m.txHead, m.txWantAck = head, wantAck
	m.setTimer(air, (*MACAW).onDataAirDone)
}

// onDSSent transmits the announced data once the DS frame leaves the air.
func (m *MACAW) onDSSent() {
	m.Fired()
	head := m.txHead
	m.txHead = nil
	m.sendData(head)
}

// onDataAirDone fires when the DATA frame leaves the air: wait for the ACK,
// tentatively complete a piggybacked packet, or finish a basic exchange.
func (m *MACAW) onDataAirDone() {
	m.Fired()
	head, wantAck := m.txHead, m.txWantAck
	m.txHead, m.txWantAck = nil, false
	if wantAck {
		m.setState(WFACK)
		m.setTimer(m.Env.Cfg.CTSWait(), (*MACAW).onACKTimeout)
		return
	}
	if m.opt.Exchange.HasACK() {
		// Piggyback mode: tentatively complete; the packet is held
		// aside until the next CTS confirms it.
		q := m.queueFor(head.Dst)
		if q != nil && q.Peek() == head {
			q.Pop()
			m.NoteQueue("pop", head.Dst, q)
		}
		m.pending.Add(head.Dst).pkt = head
		m.peers.Add(head.Dst).attempts = 0
		m.Counters.DataSent++
		m.next()
		return
	}
	// Basic exchange: the transmission is complete.
	m.completeSend(head.Dst)
}

// onCtrlSent resumes after a standalone control frame (ACK or NACK) leaves
// the air.
func (m *MACAW) onCtrlSent() {
	m.Fired()
	m.next()
}

// completeSend finishes the head packet toward dst.
func (m *MACAW) completeSend(dst frame.NodeID) {
	q := m.queueFor(dst)
	var p *mac.Packet
	if q != nil {
		p = q.Pop()
		m.NoteQueue("pop", dst, q)
	}
	m.peers.Add(dst).attempts = 0
	m.Counters.DataSent++
	if p != nil {
		m.Env.Callbacks.NotifySent(p)
	}
	m.next()
}

// onACKTimeout retries the packet. Appendix B's timeout rule penalizes the
// destination's backoff on every per-packet timeout ("When a Pad P times
// out on a packet to Q: Q's backoff += retry_count * ALPHA"), WFACK
// included; without the penalty, a sender whose data keeps colliding at the
// receiver (an intruding exposed terminal) retries at full aggression
// forever and two cells can lock into mutual destruction. §3.3.1's earlier
// "backoff not changed" rule predates the Appendix B revision.
func (m *MACAW) onACKTimeout() {
	if m.st != WFACK {
		return
	}
	m.Fired()
	m.pol.OnFailure(m.curDst)
	m.Retry(m.curDst)
	m.bumpAttempts(m.curDst)
	m.next()
}

// onACK completes the exchange (control rule 6): the backoff decreases only
// now, when the ACK arrives (§3.3.1).
func (m *MACAW) onACK(f *frame.Frame) {
	if p := m.pending.Value(f.Src).pkt; p != nil && p.Seq() == f.Seq {
		*m.pending.Add(f.Src) = held{}
		m.pol.OnSuccess(f.Src)
		m.Env.Callbacks.NotifySent(p)
		return
	}
	head := m.head(f.Src)
	if head == nil || head.Seq() != f.Seq {
		return
	}
	switch m.st {
	case WFACK:
		if f.Src != m.curDst {
			return
		}
	case WFCTS:
		// Control rule 7's counterpart: the receiver answered our
		// retransmitted RTS with the ACK for data it already has.
		if f.Src != m.curDst {
			return
		}
	default:
		return
	}
	m.ClearTimer()
	m.pol.OnSuccess(f.Src)
	m.completeSend(f.Src)
}

// onDS moves the receiver from WFDS to WFData (control rule 4).
func (m *MACAW) onDS(f *frame.Frame) {
	if m.st != WFDS || f.Src != m.expectSrc {
		return
	}
	m.ClearTimer()
	m.setState(WFData)
	m.setTimer(m.Env.Cfg.Turnaround+m.Env.Cfg.DataTime(int(f.DataBytes))+m.Env.Cfg.Margin, (*MACAW).onExpectTimeout)
}

// onData delivers the payload and returns the ACK (control rule 5). A
// retransmission of the most recently delivered packet (its ACK was lost,
// or our WFData timed out while its bits were still in the air) is
// re-acknowledged but not delivered again.
func (m *MACAW) onData(f *frame.Frame) {
	if pe := m.peers.Value(f.Src); m.opt.Exchange.HasACK() && pe.everAcked && pe.lastAcked == f.Seq {
		if m.st == WFData && f.Src == m.expectSrc {
			m.ClearTimer()
			m.sendAck(f.Src, f.Seq)
		}
		return
	}
	if m.st == WFData && f.Src == m.expectSrc {
		m.ClearTimer()
		m.Deliver(f)
		if m.opt.Exchange.HasACK() {
			pe := m.peers.Add(f.Src)
			pe.lastAcked, pe.everAcked = f.Seq, true
			if !f.AckRequested && m.opt.PiggybackACK {
				// §4: the sender will collect the ack from our
				// next CTS.
				m.next()
				return
			}
			m.sendAck(f.Src, f.Seq)
			return
		}
		m.next()
		return
	}
	// Data outside the expected window is still data; record it so a
	// retransmitted copy is not delivered twice.
	if m.opt.Exchange.HasACK() {
		pe := m.peers.Add(f.Src)
		pe.lastAcked, pe.everAcked = f.Seq, true
	}
	m.Deliver(f)
}

// sendAck transmits a link-level ACK and resumes.
func (m *MACAW) sendAck(dst frame.NodeID, seq uint32) {
	m.Out = frame.Frame{Type: frame.ACK, Src: m.Env.ID(), Dst: dst, Seq: seq}
	m.pol.StampSend(&m.Out)
	air := m.Transmit(&m.Out)
	m.Counters.ACKSent++
	m.setState(SendData)
	m.setTimer(air, (*MACAW).onCtrlSent)
}

// onRRTS answers a Request-for-RTS (control rule 13): transmit the RTS
// immediately if data for the requester is queued.
func (m *MACAW) onRRTS(f *frame.Frame) {
	if (m.st != Idle && m.st != Contend) || m.deferring() {
		return
	}
	head := m.head(f.Src)
	if head == nil {
		return
	}
	m.ClearTimer()
	if m.peers.Value(head.Dst).attempts == 0 {
		m.pol.StartExchange(head.Dst)
	}
	m.Out = frame.Frame{Type: frame.RTS, Src: m.Env.ID(), Dst: head.Dst, DataBytes: head.Size, Seq: head.Seq()}
	m.pol.StampSend(&m.Out)
	air := m.Transmit(&m.Out)
	m.Counters.RTSSent++
	m.curDst = head.Dst
	m.setState(WFCTS)
	m.setTimer(air+m.Env.Cfg.CTSWait(), (*MACAW).onCTSTimeout)
}

// onNACK (§4 alternative): the receiver's CTS went unanswered by data; the
// sender retries immediately at the next contention without a backoff
// penalty.
func (m *MACAW) onNACK(f *frame.Frame) {
	if !m.opt.NACK || m.st != WFACK || f.Src != m.curDst {
		return
	}
	m.ClearTimer()
	m.Retry(m.curDst)
	m.bumpAttempts(m.curDst)
	m.next()
}

// BackoffPolicy exposes the live policy for the watchdog's stale-entry check
// and for barrier-time retuning (sweep deltas).
func (m *MACAW) BackoffPolicy() backoff.Policy { return m.pol }

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// failed attempt.
func (m *MACAW) SetMaxRetries(n int) { m.Env.Cfg.MaxRetries = n }

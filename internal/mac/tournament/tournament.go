// Package tournament implements a constant-window tournament MAC in the
// spirit of Galtier's selective-signaling schemes: instead of spreading
// retransmissions over an ever-growing backoff window, contenders resolve
// each contention in a fixed number of elimination rounds on a global slot
// grid.
//
// Every contender draws one value from a constant window [0, W) and plays
// K = ceil(log2 W) rounds, presenting the draw's bits most-significant
// first. A contender whose current bit is 1 radiates a one-slot SIG burst
// and survives the round unconditionally; a contender whose bit is 0 stays
// silent and survives only if the slot stays silent too. After K rounds the
// survivors — exactly the stations holding the maximum draw — transmit
// their data; distinct draws yield a single winner, equal maximal draws
// collide and retry. The window never adapts: fairness comes from fresh
// uniform draws each contention, and the access delay is bounded by K slots
// regardless of load — the trade the paper's §5 backoff discussion circles
// around (stability versus bounded access time).
//
// The slot grid is global (slot = one control packet's airtime, and a SIG
// is a control packet, so a signaling burst fills its round exactly).
// Stations join a contention only after observing the medium idle for a
// full slot, which keeps concurrent tournaments aligned in the common case;
// misaligned joins resolve as ordinary collisions through the ACK retry
// path. Losses during the elimination rounds cost no retry budget — only a
// transmitted-but-unacknowledged data frame counts against MaxRetries.
package tournament

import (
	"fmt"

	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// State is a tournament FSM state.
type State int

// Tournament states.
const (
	// Idle: nothing queued.
	Idle State = iota
	// WaitIdle: queued data pending, polling grid boundaries for a
	// slot-long idle period to start a tournament.
	WaitIdle
	// Tourn: playing elimination rounds.
	Tourn
	// SendData: broadcast data on the air (no ACK follows).
	SendData
	// WFACK: unicast data radiated, awaiting the ACK.
	WFACK
)

var stateNames = [...]string{"IDLE", "WAITIDLE", "TOURN", "SENDDATA", "WFACK"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Options configures a tournament instance.
type Options struct {
	// Window is the constant contention window W: draws are uniform over
	// [0, W) and a tournament runs ceil(log2 W) rounds (default 32, five
	// rounds). Must be at least 2.
	Window int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 32
	}
	return o
}

// Tournament is one station's protocol instance.
type Tournament struct {
	mac.Base
	opt Options

	st State
	q  mac.Queue
	// draw is the value drawn for the live tournament; round counts the
	// rounds still to play (K down to 0, bit round-1 presented next).
	draw, round int
	// roundStart is when the current round's slot began; sentSig records
	// whether this station radiated in it (transmitters cannot lose).
	roundStart sim.Time
	sentSig    bool
	// lastBusy is the time of the last carrier edge (rise or fall); the
	// medium has been idle a full slot iff it is at least a slot old and
	// the carrier is down now.
	lastBusy sim.Time
	retries  int
	// sending references the head packet from data transmission until its
	// exchange completes (still queued; success or drop pops it).
	sending *mac.Packet
	// lastSeq records the last delivered sequence number per source so a
	// retransmission after a lost ACK is re-acknowledged, not re-delivered.
	lastSeq frame.Peers[uint32]
	sigs    int // SIG bursts radiated (engine-local; mac.Stats has no slot for them)
}

// New returns a tournament instance bound to env's radio. The link-layer
// sequence origin is drawn randomly per lifetime, so a rebooted station
// cannot collide with its pre-crash numbering.
func New(env *mac.Env, opt Options) *Tournament {
	opt = opt.withDefaults()
	t, ok := mac.TakeSpare[*Tournament](env)
	if !ok {
		t = new(Tournament)
	}
	t.lastSeq.Reset()
	*t = Tournament{
		Base:     mac.Base{Env: env, Seq: env.Rand.Uint32() & 0x3fffffff},
		opt:      opt,
		lastBusy: -1,
		q:        mac.NewQueue(env.Blocks),
		lastSeq:  t.lastSeq,
	}
	env.Radio.SetHandler(t)
	return t
}

// State returns the current FSM state.
func (t *Tournament) State() State { return t.st }

// Options returns the configured options (post-default).
func (t *Tournament) Options() Options { return t.opt }

// Sigs returns the number of SIG bursts radiated (tests and benchmarks).
func (t *Tournament) Sigs() int { return t.sigs }

// rounds returns K = ceil(log2 Window).
func (t *Tournament) rounds() int {
	k := 0
	for 1<<k < t.opt.Window {
		k++
	}
	return k
}

// FSMState implements mac.Engine.
func (t *Tournament) FSMState() string { return t.st.String() }

// Halt implements mac.Engine.
func (t *Tournament) Halt() {
	if !t.BeginHalt() {
		return
	}
	t.st = Idle
	t.sending = nil
	t.DrainQueue(&t.q)
}

// Protocol implements mac.Engine.
func (t *Tournament) Protocol() string { return "tournament" }

// QueueLen implements mac.MAC.
func (t *Tournament) QueueLen() int { return t.q.Len() }

// Enqueue implements mac.MAC.
func (t *Tournament) Enqueue(p *mac.Packet) {
	if !t.Admit(p) {
		return
	}
	t.q.Push(p)
	t.NoteQueue("push", p.Dst, &t.q)
	if t.st == Idle {
		t.startWait()
	}
}

// setTimer arms the state timer for fn, a method expression, dur from now.
func (t *Tournament) setTimer(dur sim.Duration, fn func(*Tournament)) {
	t.ArmAt(t.Env.Sim.Now()+dur, sim.Call[*Tournament], t, fn)
}

// setState moves the FSM to s.
func (t *Tournament) setState(s State) {
	if s != t.st {
		t.NoteState(t.st.String(), s.String())
	}
	t.st = s
}

// slot returns the global grid pitch (one control packet's airtime).
func (t *Tournament) slot() sim.Duration { return t.Env.Cfg.Slot() }

// startWait enters WaitIdle toward the next grid boundary, or Idle when the
// queue is empty.
func (t *Tournament) startWait() {
	if t.q.Peek() == nil {
		t.setState(Idle)
		return
	}
	t.setState(WaitIdle)
	t.armBoundary()
}

// armBoundary schedules the next grid-boundary check.
func (t *Tournament) armBoundary() {
	now := t.Env.Sim.Now()
	slot := t.slot()
	next := (now/slot + 1) * slot
	t.setTimer(next-now, (*Tournament).onBoundary)
}

// onBoundary fires at a grid boundary in WaitIdle: a tournament starts only
// if the medium has been idle for a full slot; otherwise the station keeps
// polling boundaries.
func (t *Tournament) onBoundary() {
	t.Fired()
	if t.q.Peek() == nil {
		t.setState(Idle)
		return
	}
	now := t.Env.Sim.Now()
	if t.Env.Radio.Transmitting() || t.Env.Radio.CarrierBusy() || t.lastBusy+t.slot() > now {
		t.armBoundary()
		return
	}
	t.draw = t.Env.Rand.Intn(t.opt.Window)
	t.round = t.rounds()
	t.setState(Tourn)
	t.stepRound()
}

// stepRound plays the next elimination round, or transmits the data frame
// when every round has been survived.
func (t *Tournament) stepRound() {
	if t.round == 0 {
		t.sendHead()
		return
	}
	t.round--
	t.roundStart = t.Env.Sim.Now()
	if (t.draw>>t.round)&1 == 1 {
		t.Out = frame.Frame{Type: frame.SIG, Src: t.Env.ID(), Dst: frame.Broadcast}
		t.Transmit(&t.Out)
		t.sigs++
		t.sentSig = true
	} else {
		t.sentSig = false
	}
	t.setTimer(t.slot(), (*Tournament).onRoundEnd)
}

// onRoundEnd closes a round: silent contenders that heard traffic lose and
// return to WaitIdle; everyone else proceeds.
func (t *Tournament) onRoundEnd() {
	t.Fired()
	if !t.sentSig && (t.lastBusy >= t.roundStart || t.Env.Radio.CarrierBusy()) {
		t.startWait()
		return
	}
	t.stepRound()
}

// sendHead transmits the head packet as the tournament's survivor.
func (t *Tournament) sendHead() {
	head := t.q.Peek()
	if head == nil {
		t.setState(Idle)
		return
	}
	t.Out = frame.Frame{Type: frame.DATA, Src: t.Env.ID(), Dst: head.Dst, DataBytes: head.Size, Seq: head.Seq(), Payload: head.Payload}
	air := t.Transmit(&t.Out)
	t.sending = head
	if head.Dst == frame.Broadcast {
		t.setState(SendData)
		t.setTimer(air, (*Tournament).onDataAirDone)
		return
	}
	t.setState(WFACK)
	t.setTimer(air+t.Env.Cfg.CtrlTime()+t.Env.Cfg.Margin, (*Tournament).onACKTimeout)
}

// onDataAirDone completes a broadcast data frame (no ACK).
func (t *Tournament) onDataAirDone() {
	t.Fired()
	head := t.sending
	t.sending = nil
	t.q.Pop()
	t.NoteQueue("pop", head.Dst, &t.q)
	t.retries = 0
	t.Counters.DataSent++
	t.Env.Callbacks.NotifySent(head)
	t.startWait()
}

// onACKTimeout charges an unacknowledged data frame against MaxRetries —
// the only path that consumes retry budget (elimination losses are free).
func (t *Tournament) onACKTimeout() {
	t.Fired()
	t.sending = nil
	t.retries++
	if head := t.q.Peek(); head != nil {
		t.Retry(head.Dst)
		if t.retries > t.Env.Cfg.MaxRetries {
			t.q.Pop()
			t.NoteQueue("drop", head.Dst, &t.q)
			t.retries = 0
			t.Drop(head, mac.DropRetries)
		}
	}
	t.startWait()
}

// deliver hands a DATA payload up unless it is a retransmission of the last
// delivered frame from that source.
func (t *Tournament) deliver(f *frame.Frame) {
	if last := t.lastSeq.Get(f.Src); last != nil && *last == f.Seq {
		return
	}
	*t.lastSeq.Add(f.Src) = f.Seq
	t.Deliver(f)
}

// RadioCarrier implements phy.Handler: both edges timestamp lastBusy, so
// "idle for a full slot" is lastBusy at least a slot old with the carrier
// down.
func (t *Tournament) RadioCarrier(bool) {
	if t.Halted() {
		return
	}
	t.lastBusy = t.Env.Sim.Now()
}

// RadioReceive implements phy.Handler.
func (t *Tournament) RadioReceive(f *frame.Frame) {
	if !t.Receive(f) {
		return
	}
	if f.Dst == frame.Broadcast && f.Type == frame.DATA {
		t.deliver(f)
		return
	}
	if f.Dst != t.Env.ID() {
		return
	}
	switch f.Type {
	case frame.DATA:
		t.deliver(f)
		// The ACK follows immediately (the receiver is in WaitIdle or
		// Idle by the data frame's end: contenders lost their round when
		// the data's carrier rose). No state change: an armed boundary
		// timer simply finds the medium busy and re-polls.
		if !t.Env.Radio.Transmitting() {
			t.Out = frame.Frame{Type: frame.ACK, Src: t.Env.ID(), Dst: f.Src, Seq: f.Seq}
			t.Transmit(&t.Out)
			t.Counters.ACKSent++
		}
	case frame.ACK:
		if t.st != WFACK {
			return
		}
		head := t.q.Peek()
		if head == nil || f.Src != head.Dst || f.Seq != head.Seq() {
			return
		}
		t.ClearTimer()
		t.sending = nil
		t.q.Pop()
		t.NoteQueue("pop", head.Dst, &t.q)
		t.retries = 0
		t.Counters.DataSent++
		t.Env.Callbacks.NotifySent(head)
		t.startWait()
	}
}

// SetWindow rewrites the constant contention window at a sweep barrier. It
// fails closed below the floor of 2 (a 1-wide window has zero rounds and
// every contention would collide) — the sweep delta layer surfaces this as a
// validation error rather than clamping silently.
func (t *Tournament) SetWindow(v int) error {
	if v < 2 {
		return fmt.Errorf("tournament: window %d below floor 2", v)
	}
	t.opt.Window = v
	return nil
}

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// unacknowledged data frame.
func (t *Tournament) SetMaxRetries(n int) { t.Env.Cfg.MaxRetries = n }

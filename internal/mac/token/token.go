// Package token implements the token-based single-cell access scheme the
// paper defers to future work ("Various token-based schemes, or those
// involving polling or reservations, are possibilities we hope to explore").
//
// A static ring of stations circulates a TOKEN control packet; the holder
// transmits up to MaxPerToken queued data packets, then passes the token to
// its successor. The scheme needs no RTS/CTS — token possession is the
// collision-avoidance — but it pays exactly the costs §2.1 predicts for a
// mobile environment: hand-off overhead on every rotation, and recovery
// timeouts whenever a station holding (or about to receive) the token
// disappears. Stations skip dead successors after a watch timeout, and the
// lowest-numbered live station regenerates a token lost to silence.
//
// The implementation is deliberately single-cell (every ring member must
// hear every other); the paper's other reason for rejecting tokens —
// hand-off across cells — is out of scope.
package token

import (
	"fmt"

	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// State is a token MAC state.
type State int

// Token states.
const (
	// NoToken: listening; the token is elsewhere.
	NoToken State = iota
	// Holding: this station owns the channel.
	Holding
	// Passing: token transmitted, watching for the successor to use it.
	Passing
)

var stateNames = [...]string{"NOTOKEN", "HOLDING", "PASSING"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Options configures a token MAC instance.
type Options struct {
	// Ring lists every station of the cell in token order; it must be
	// identical at every member. The first listed station generates the
	// initial token.
	Ring []frame.NodeID
	// MaxPerToken bounds the data packets sent per token possession
	// (default 1, round-robin fairness).
	MaxPerToken int
	// WatchSlots is how many slot times a passer waits to hear its
	// successor use the token before skipping it. Receptions complete at
	// frame end, so the window must cover the successor's largest first
	// transmission — a full data frame (~17.1 slots for 512 bytes) plus
	// slack (default 24).
	WatchSlots int
	// RecoverySlots is how many slots of total silence any station
	// tolerates before the lowest live member regenerates the token
	// (default 64).
	RecoverySlots int
}

func (o Options) withDefaults() Options {
	if o.MaxPerToken <= 0 {
		o.MaxPerToken = 1
	}
	if o.WatchSlots <= 0 {
		o.WatchSlots = 24
	}
	if o.RecoverySlots <= 0 {
		o.RecoverySlots = 64
	}
	return o
}

// Token is one station's protocol instance.
type Token struct {
	mac.Base
	opt Options

	st       State
	q        mac.Queue
	ringPos  int // own index in the ring
	passTo   int // ring index the token was passed to (Passing state)
	sentThis int // packets sent during the current possession
	// sending is the packet on the air during a possession (already popped
	// off the queue), completed by onDataSent.
	sending *mac.Packet
	// skipNext is the skip distance the Passing watch timer will retry
	// with when the successor never shows life.
	skipNext int
	// watchdog is the silence timer, armed beside the chassis state timer
	// and not reported to the observer.
	watchdog sim.Event
	// Regenerations counts token-recovery events at this station.
	Regenerations int
	// Skips counts successors skipped after a watch timeout.
	Skips int
}

// New returns a token MAC bound to env's radio. The env's station must be
// listed in opt.Ring.
func New(env *mac.Env, opt Options) *Token {
	opt = opt.withDefaults()
	t, ok := mac.TakeSpare[*Token](env)
	if !ok {
		t = new(Token)
	}
	*t = Token{Base: mac.Base{Env: env}, opt: opt, ringPos: -1, q: mac.NewQueue(env.Blocks)}
	for i, id := range opt.Ring {
		if id == env.ID() {
			t.ringPos = i
			break
		}
	}
	if t.ringPos < 0 {
		panic(fmt.Sprintf("token: station %v not in ring %v", env.ID(), opt.Ring))
	}
	env.Radio.SetHandler(t)
	t.armWatchdog()
	if t.ringPos == 0 {
		// The first member bootstraps the token once the ring settles.
		t.Env.Sim.AtPriorityCall(t.Env.Sim.Now()+t.Env.Cfg.Slot(), 0, sim.Call[*Token], t, (*Token).acquire)
	}
	return t
}

// State returns the current protocol state.
func (t *Token) State() State { return t.st }

// timerAt returns when e fires, or -1 for an unarmed or cancelled event.
func timerAt(e sim.Event) sim.Time {
	if e.IsZero() || e.Cancelled() {
		return -1
	}
	return e.When()
}

// FSMState implements mac.Engine.
func (t *Token) FSMState() string { return t.st.String() }

// TimerPending implements mac.Engine. The silence watchdog counts: it is
// the event that guarantees liveness in NOTOKEN (the token is elsewhere and
// only recovery or a reception can change that), so the scheme's pending
// continuation is whichever of the state timer and the watchdog fires first.
func (t *Token) TimerPending() bool { return t.TimerWhen() >= 0 }

// TimerWhen implements mac.Engine: the earlier of the state timer and the
// silence watchdog, or -1 when neither is armed.
func (t *Token) TimerWhen() sim.Time {
	a, b := t.Base.TimerWhen(), timerAt(t.watchdog)
	if a < 0 {
		return b
	}
	if b < 0 || a < b {
		return a
	}
	return b
}

// Halt implements mac.Engine, cancelling the silence watchdog too. Before
// the MAC SPI extraction the token engine had no Halt at all, so a crashed
// station's instance kept driving the shared radio after a restart bound a
// fresh one — see TestHaltSilencesZombieInstance.
func (t *Token) Halt() {
	if !t.BeginHalt() {
		return
	}
	t.watchdog.Cancel()
	t.watchdog = sim.Event{}
	t.st = NoToken
	t.sending = nil
	t.DrainQueue(&t.q)
}

// Protocol implements mac.Engine.
func (t *Token) Protocol() string { return "token" }

// QueueLen implements mac.MAC.
func (t *Token) QueueLen() int { return t.q.Len() }

// Enqueue implements mac.MAC.
func (t *Token) Enqueue(p *mac.Packet) {
	if !t.Admit(p) {
		return
	}
	t.q.Push(p)
	t.NoteQueue("push", p.Dst, &t.q)
}

// setTimer arms the state timer for fn, a method expression, d from now.
func (t *Token) setTimer(d sim.Duration, fn func(*Token)) {
	t.ArmAt(t.Env.Sim.Now()+d, sim.Call[*Token], t, fn)
}

// setState moves the FSM to s.
func (t *Token) setState(s State) {
	if s != t.st {
		t.NoteState(t.st.String(), s.String())
	}
	t.st = s
}

// armWatchdog (re)starts the silence watchdog that triggers token recovery.
func (t *Token) armWatchdog() {
	t.watchdog.Cancel()
	at := t.Env.Sim.Now() + sim.Duration(t.opt.RecoverySlots+t.ringPos)*t.Env.Cfg.Slot()
	t.watchdog = t.Env.Sim.AtPriorityCall(at, 0, sim.Call[*Token], t, (*Token).onSilence)
}

// onSilence fires when nothing has been heard for the recovery window. The
// per-station ringPos stagger makes the lowest live member win the
// regeneration race.
func (t *Token) onSilence() {
	t.watchdog = sim.Event{}
	if t.st != NoToken {
		t.armWatchdog()
		return
	}
	t.Regenerations++
	t.acquire()
}

// acquire takes possession of the token.
func (t *Token) acquire() {
	if t.Halted() || t.Env.Radio.Transmitting() {
		return
	}
	t.setState(Holding)
	t.sentThis = 0
	t.serve()
}

// serve transmits queued data while the possession budget lasts, then
// passes the token on.
func (t *Token) serve() {
	t.armWatchdog()
	head := t.q.Peek()
	if head == nil || t.sentThis >= t.opt.MaxPerToken {
		t.pass(1)
		return
	}
	t.q.Pop()
	t.NoteQueue("pop", head.Dst, &t.q)
	t.sentThis++
	t.Out = frame.Frame{Type: frame.DATA, Src: t.Env.ID(), Dst: head.Dst, DataBytes: head.Size, Seq: head.Seq(), Payload: head.Payload}
	air := t.Transmit(&t.Out)
	t.sending = head
	t.setTimer(air, (*Token).onDataSent)
}

// onDataSent completes the data frame on the air and keeps serving.
func (t *Token) onDataSent() {
	t.Fired()
	head := t.sending
	t.sending = nil
	t.Counters.DataSent++
	t.Env.Callbacks.NotifySent(head)
	t.serve()
}

// onHoldPause resumes serving after a held-token pause: either the recovery
// pause taken when every successor looked dead, or the one-slot self-pass of
// a ring of one. Both reopen the possession budget.
func (t *Token) onHoldPause() {
	t.Fired()
	t.sentThis = 0
	t.serve()
}

// onWatchTimeout fires when the successor the token was passed to never
// showed life: skip it and pass further around the ring.
func (t *Token) onWatchTimeout() {
	t.Fired()
	t.Skips++
	t.pass(t.skipNext)
}

// pass hands the token to the skip-th successor and watches for it to show
// life.
func (t *Token) pass(skip int) {
	if skip >= len(t.opt.Ring) {
		// Everyone else looks dead; keep the token and try again after
		// a recovery pause.
		t.setState(Holding)
		t.setTimer(sim.Duration(t.opt.RecoverySlots)*t.Env.Cfg.Slot(), (*Token).onHoldPause)
		return
	}
	t.passTo = (t.ringPos + skip) % len(t.opt.Ring)
	succ := t.opt.Ring[t.passTo]
	if succ == t.Env.ID() {
		// Ring of one: keep serving after a slot's pause.
		t.sentThis = 0
		t.setTimer(t.Env.Cfg.Slot(), (*Token).onHoldPause)
		return
	}
	t.Out = frame.Frame{Type: frame.TOKEN, Src: t.Env.ID(), Dst: succ}
	air := t.Transmit(&t.Out)
	t.setState(Passing)
	t.skipNext = skip + 1
	t.setTimer(air+sim.Duration(t.opt.WatchSlots)*t.Env.Cfg.Slot(), (*Token).onWatchTimeout)
}

// RadioCarrier implements phy.Handler; token access needs no carrier sense.
func (t *Token) RadioCarrier(bool) {}

// RadioReceive implements phy.Handler.
func (t *Token) RadioReceive(f *frame.Frame) {
	if !t.Receive(f) {
		return
	}
	t.armWatchdog()
	if t.st == Passing {
		// Any transmission from the successor proves the hand-off.
		if f.Src == t.opt.Ring[t.passTo] {
			t.ClearTimer()
			t.setState(NoToken)
		}
	}
	switch f.Type {
	case frame.TOKEN:
		if f.Dst == t.Env.ID() {
			t.ClearTimer()
			t.acquire()
		}
	case frame.DATA:
		if f.Dst == t.Env.ID() || f.Dst == frame.Broadcast {
			t.Deliver(f)
		}
	}
}

package mac

import (
	"fmt"
	"strings"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/phy"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// logRadio is a Radio that logs each transmission into a shared log.
type logRadio struct{ log *[]string }

func (r logRadio) ID() frame.NodeID { return 1 }
func (r logRadio) Transmit(f *frame.Frame) sim.Duration {
	*r.log = append(*r.log, "radio "+f.Type.String())
	return sim.Millisecond
}
func (r logRadio) Transmitting() bool     { return false }
func (r logRadio) CarrierBusy() bool      { return false }
func (r logRadio) Enabled() bool          { return true }
func (r logRadio) SetHandler(phy.Handler) {}

// logObs is an Observer that logs each hook into the same log.
type logObs struct{ log *[]string }

func (o logObs) add(s string)                 { *o.log = append(*o.log, s) }
func (o logObs) ObserveTx(f *frame.Frame)     { o.add("tx " + f.Type.String()) }
func (o logObs) ObserveRx(f *frame.Frame)     { o.add("rx " + f.Type.String()) }
func (o logObs) ObserveState(from, to string) { o.add("state " + from + ">" + to) }
func (o logObs) ObserveTimer(at sim.Time)     { o.add(fmt.Sprintf("timer %d", at)) }
func (o logObs) ObserveDeliver(*frame.Frame)  { o.add("deliver") }
func (o logObs) ObserveRetry(frame.NodeID)    { o.add("retry") }
func (o logObs) ObserveDrop(_ frame.NodeID, r DropReason) {
	o.add("drop " + string(r))
}
func (o logObs) ObserveQueue(op string, _ frame.NodeID, n int) {
	o.add(fmt.Sprintf("queue %s %d", op, n))
}

// newLoggedBase returns a chassis whose radio, observer and callbacks all
// append to one log, so the tests can check the order of every report.
func newLoggedBase() (*Base, *[]string) {
	log := &[]string{}
	env := &Env{Sim: sim.New(1), Radio: logRadio{log}, Cfg: DefaultConfig(), Obs: logObs{log}}
	env.Callbacks = Callbacks{
		Deliver: func(frame.NodeID, []byte) { *log = append(*log, "cb deliver") },
		Sent:    func(*Packet) { *log = append(*log, "cb sent") },
		Dropped: func(_ *Packet, r DropReason) { *log = append(*log, "cb dropped "+string(r)) },
	}
	return &Base{Env: env}, log
}

// TestBaseObserverDiscipline pins the SPI's observer conventions on the one
// implementation every engine shares: each hook fires before the action it
// reports, counters move with their hooks, and Halt cancels the timer,
// drains as DropDisabled and turns Admit and Receive into no-ops.
func TestBaseObserverDiscipline(t *testing.T) {
	b, log := newLoggedBase()
	check := func(want ...string) {
		t.Helper()
		if got := strings.Join(*log, "; "); got != strings.Join(want, "; ") {
			t.Fatalf("reports\n got  %s\n want %s", got, strings.Join(want, "; "))
		}
		*log = (*log)[:0]
	}
	noop := func(*Base) {}

	b.ArmAt(5*sim.Millisecond, sim.Call[*Base], b, noop)
	if b.TimerWhen() != 5*sim.Millisecond || !b.TimerPending() {
		t.Fatalf("armed timer reads %v", b.TimerWhen())
	}
	b.Out = frame.Frame{Type: frame.RTS}
	b.Transmit(&b.Out)
	b.Receive(&frame.Frame{Type: frame.CTS})
	b.NoteState("IDLE", "WFCTS")
	b.Deliver(&frame.Frame{Type: frame.DATA})
	b.Retry(2)
	var q Queue
	p := &Packet{Dst: 2}
	if !b.Admit(p) || p.Seq() != 1 {
		t.Fatalf("Admit refused or numbered seq %d", p.Seq())
	}
	q.Push(p)
	b.NoteQueue("push", 2, &q)
	p = q.Pop()
	b.NoteQueue("pop", 2, &q)
	b.Drop(p, DropRetries)
	b.ClearTimer()
	check("timer 5000000", "tx RTS", "radio RTS", "rx CTS", "state IDLE>WFCTS",
		"deliver", "cb deliver", "retry", "queue push 1", "queue pop 0",
		"drop retry limit exceeded", "cb dropped retry limit exceeded", "timer -1")
	if b.TimerPending() {
		t.Fatal("cleared timer still pending")
	}
	if st := b.Stats(); st.DataReceived != 1 || st.Retries != 1 || st.Drops != 1 {
		t.Fatalf("counters %+v", st)
	}

	b.ArmAt(5*sim.Millisecond, sim.Call[*Base], b, noop)
	q.Push(&Packet{Dst: 2})
	q.Push(&Packet{Dst: 3})
	*log = (*log)[:0]
	if !b.BeginHalt() || !b.Halted() {
		t.Fatal("BeginHalt did not latch")
	}
	b.DrainQueue(&q)
	check("timer -1", "drop station disabled", "cb dropped station disabled",
		"drop station disabled", "cb dropped station disabled")
	if b.BeginHalt() {
		t.Fatal("second BeginHalt reported a fresh halt")
	}
	if b.Admit(&Packet{Dst: 2}) || b.Receive(&frame.Frame{Type: frame.RTS}) {
		t.Fatal("halted chassis admitted a packet or a frame")
	}
	check("cb dropped station disabled")
	if st := b.Stats(); st.Drops != 3 {
		t.Fatalf("Drops = %d, want 3 (a refused offer is not counted)", st.Drops)
	}
}

// TestDisabledObserverHooksAllocationFree pins the cost side of the
// passivity contract (DESIGN.md §12): with no observer attached, the
// chassis hooks must be a nil check and nothing else — zero allocations —
// so instrumentation support cannot tax a bare run.
func TestDisabledObserverHooksAllocationFree(t *testing.T) {
	b := &Base{Env: &Env{Sim: sim.New(1), Cfg: DefaultConfig()}}
	var q Queue
	p := &Packet{Dst: 2}
	f := &frame.Frame{Type: frame.DATA, Src: 2}
	if n := statecheck.Mallocs(100, func() {
		b.NoteState("IDLE", "CONTEND")
		b.NoteQueue("push", 2, &q)
		b.Retry(2)
		b.Drop(p, DropRetries)
		b.Receive(f)
		b.Deliver(f)
		b.Admit(p)
	}); n != 0 {
		t.Fatalf("disabled observer hooks allocated %d times per call set, want 0", n)
	}
}

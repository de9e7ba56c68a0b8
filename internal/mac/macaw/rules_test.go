package macaw

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
)

// Rule-by-rule tests for the Appendix B state machine. Each test drives the
// engine to the state a rule covers and checks the prescribed transition.

// step runs the world until the station reaches the wanted state or the
// deadline passes.
func step(w *world, m *MACAW, want State, deadline sim.Duration) bool {
	for w.s.Now() < deadline {
		if m.State() == want {
			return true
		}
		if !w.s.Step() {
			break
		}
	}
	return m.State() == want
}

func TestControlRule1ContendOnEnqueue(t *testing.T) {
	// "When A is in IDLE state and wants to transmit a data packet to B,
	// it sets a random timer and goes to the CONTEND state."
	w := newWorld(41)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	w.add(2, geom.V(6, 0, 6), DefaultOptions())
	if a.m.State() != Idle {
		t.Fatal("not idle initially")
	}
	a.m.Enqueue(pkt(2))
	if a.m.State() != Contend {
		t.Fatalf("state after enqueue = %v, want CONTEND", a.m.State())
	}
	if a.m.TimerWhen() < 0 {
		t.Fatal("no contention timer set")
	}
}

func TestControlRule2CTSAndWFDS(t *testing.T) {
	// "When station B is in IDLE state and receives a RTS packet from A,
	// it transmits a Clear To Send (CTS) packet. B then sets a timer and
	// goes to Wait for DataSend (WFDS) state."
	w := newWorld(42)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	a.m.Enqueue(pkt(2))
	if !step(w, b.m, WFDS, 100*sim.Millisecond) {
		t.Fatalf("B state = %v, want WFDS after RTS", b.m.State())
	}
	if b.m.Stats().CTSSent != 1 {
		t.Fatal("no CTS transmitted")
	}
}

func TestControlRules3to6FullHappyPath(t *testing.T) {
	// Rules 3-6: CTS -> DS+DATA (sender through SENDDATA to WFACK);
	// DS -> WFDATA at the receiver; DATA -> ACK; ACK -> IDLE.
	w := newWorld(43)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	a.m.Enqueue(pkt(2))
	if !step(w, a.m, SendData, 100*sim.Millisecond) {
		t.Fatalf("sender never reached SENDDATA (state %v)", a.m.State())
	}
	if !step(w, b.m, WFData, 100*sim.Millisecond) {
		t.Fatalf("receiver never reached WFDATA (state %v)", b.m.State())
	}
	if !step(w, a.m, WFACK, 200*sim.Millisecond) {
		t.Fatalf("sender never reached WFACK (state %v)", a.m.State())
	}
	w.s.Run(300 * sim.Millisecond)
	if a.m.State() != Idle || b.m.State() != Idle {
		t.Fatalf("end states %v/%v, want IDLE/IDLE", a.m.State(), b.m.State())
	}
	if a.sent != 1 || len(b.delivered) != 1 {
		t.Fatal("exchange did not complete")
	}
}

func TestControlRule7RepeatedRTSGetsACK(t *testing.T) {
	// Covered end-to-end by TestLostACKRecoveredByRule7; here the direct
	// transition: B in IDLE, RTS for an already-acked seq -> ACK, no CTS.
	w := newWorld(44)
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	probe := w.medium.Attach(9, geom.V(3, 0, 6), nil)
	rts := &frame.Frame{Type: frame.RTS, Src: 9, Dst: 2, DataBytes: 512, Seq: 5}
	ds := &frame.Frame{Type: frame.DS, Src: 9, Dst: 2, DataBytes: 512, Seq: 5}
	data := &frame.Frame{Type: frame.DATA, Src: 9, Dst: 2, DataBytes: 512, Seq: 5}
	// First, a complete RTS-CTS-DS-DATA exchange so B acknowledges seq 5.
	// Timing: B's CTS occupies [937.5us, 1875us] and its WFDS window ends
	// ~2.91ms, so the DS goes out right after the CTS and the DATA
	// back-to-back after the DS.
	probe.Transmit(rts)
	w.s.Run(1900 * sim.Microsecond)
	air := probe.Transmit(ds)
	w.s.Run(w.s.Now() + air)
	probe.Transmit(data)
	w.s.Run(40 * sim.Millisecond)
	acks := b.m.Stats().ACKSent
	if acks != 1 {
		t.Fatalf("ACKSent = %d after first exchange", acks)
	}
	// The retransmitted RTS for the same seq gets the ACK again, not a CTS.
	ctsBefore := b.m.Stats().CTSSent
	probe.Transmit(rts)
	w.s.Run(80 * sim.Millisecond)
	if b.m.Stats().ACKSent != 2 {
		t.Fatalf("ACKSent = %d, want 2 (rule 7)", b.m.Stats().ACKSent)
	}
	if b.m.Stats().CTSSent != ctsBefore {
		t.Fatal("rule 7 answered with a CTS")
	}
}

func TestControlRule8CTSFromContend(t *testing.T) {
	// "If A receives a RTS packet when it is in CONTEND state, it
	// transmits CTS packet to the sender."
	w := newWorld(45)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	// Make B contend (it has its own packet for A), then hit it with A's
	// RTS before its timer fires.
	a.m.Enqueue(pkt(2))
	b.m.Enqueue(pkt(1))
	if b.m.State() != Contend {
		t.Fatal("B not contending")
	}
	w.s.Run(2 * sim.Second)
	// Both transfers complete despite the crossed intentions.
	if len(a.delivered) != 1 || len(b.delivered) != 1 {
		t.Fatalf("deliveries a=%d b=%d", len(a.delivered), len(b.delivered))
	}
}

func TestTimeoutRule3BrokenExchangeReturnsToIdle(t *testing.T) {
	// "From any other state, when a timer expires, a station goes to the
	// IDLE state." A receiver whose sender dies mid-exchange must not
	// wedge in WFDS.
	w := newWorld(46)
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	probe := w.medium.Attach(9, geom.V(3, 0, 6), nil)
	probe.Transmit(&frame.Frame{Type: frame.RTS, Src: 9, Dst: 2, DataBytes: 512, Seq: 1})
	if !step(w, b.m, WFDS, 50*sim.Millisecond) {
		t.Fatalf("B state = %v, want WFDS", b.m.State())
	}
	// The sender never follows up with a DS; B must time out to IDLE.
	w.s.Run(200 * sim.Millisecond)
	if b.m.State() != Idle {
		t.Fatalf("B stuck in %v after broken exchange", b.m.State())
	}
}

func TestDeferRule1RTSQuietThroughCTS(t *testing.T) {
	// "When C hears a RTS packet from A to B, it goes from its current
	// state to the QUIET state."
	w := newWorld(47)
	c := w.add(3, geom.V(3, 3, 6), DefaultOptions())
	probe := w.medium.Attach(9, geom.V(0, 0, 6), nil)
	probe.Transmit(&frame.Frame{Type: frame.RTS, Src: 9, Dst: 8, DataBytes: 512})
	if !step(w, c.m, Quiet, 10*sim.Millisecond) {
		t.Fatalf("C state = %v, want QUIET after overheard RTS", c.m.State())
	}
	// The defer covers only the CTS slot (main-text semantics): ~1.9ms.
	horizon := c.m.DeferUntil() - w.s.Now()
	if horizon <= 0 || horizon > 3*sim.Millisecond {
		t.Fatalf("RTS defer horizon = %v", horizon)
	}
}

func TestDeferRule2DSQuietThroughDataAndACK(t *testing.T) {
	w := newWorld(48)
	c := w.add(3, geom.V(3, 3, 6), DefaultOptions())
	probe := w.medium.Attach(9, geom.V(0, 0, 6), nil)
	probe.Transmit(&frame.Frame{Type: frame.DS, Src: 9, Dst: 8, DataBytes: 512})
	if !step(w, c.m, Quiet, 10*sim.Millisecond) {
		t.Fatalf("C state = %v, want QUIET after overheard DS", c.m.State())
	}
	// DATA (16ms) + ACK slot.
	horizon := c.m.DeferUntil() - w.s.Now()
	if horizon < 16*sim.Millisecond || horizon > 19*sim.Millisecond {
		t.Fatalf("DS defer horizon = %v, want ~16.9ms", horizon)
	}
}

func TestDeferRule3CTSQuietThroughData(t *testing.T) {
	w := newWorld(49)
	c := w.add(3, geom.V(3, 3, 6), DefaultOptions())
	probe := w.medium.Attach(9, geom.V(0, 0, 6), nil)
	probe.Transmit(&frame.Frame{Type: frame.CTS, Src: 9, Dst: 8, DataBytes: 512})
	if !step(w, c.m, Quiet, 10*sim.Millisecond) {
		t.Fatalf("C state = %v, want QUIET after overheard CTS", c.m.State())
	}
	// DS + DATA + ACK from the CTS end.
	horizon := c.m.DeferUntil() - w.s.Now()
	if horizon < 17*sim.Millisecond || horizon > 20*sim.Millisecond {
		t.Fatalf("CTS defer horizon = %v, want ~17.9ms", horizon)
	}
}

func TestDeferRule4RRTSQuietForExchange(t *testing.T) {
	w := newWorld(50)
	c := w.add(3, geom.V(3, 3, 6), DefaultOptions())
	probe := w.medium.Attach(9, geom.V(0, 0, 6), nil)
	probe.Transmit(&frame.Frame{Type: frame.RRTS, Src: 9, Dst: 8, DataBytes: 512})
	if !step(w, c.m, Quiet, 10*sim.Millisecond) {
		t.Fatalf("C state = %v, want QUIET after overheard RRTS", c.m.State())
	}
	horizon := c.m.DeferUntil() - w.s.Now()
	if horizon <= sim.Millisecond || horizon > 3*sim.Millisecond {
		t.Fatalf("RRTS defer horizon = %v, want ~2 slots", horizon)
	}
}

func TestQuietStationStoresOnlyFirstRTSForRRTS(t *testing.T) {
	// "If it has received several RTS's during the deferral period, it
	// only responds to the first received RTS."
	w := newWorld(51)
	c := w.add(3, geom.V(0, 0, 6), DefaultOptions())
	// Two probes that C hears; they cannot hear each other is irrelevant
	// here — transmissions are sequenced so both RTSes arrive cleanly.
	p1 := w.medium.Attach(8, geom.V(3, 0, 6), nil)
	p2 := w.medium.Attach(9, geom.V(-3, 0, 6), nil)
	// Put C into a long defer with a DS.
	p1.Transmit(&frame.Frame{Type: frame.DS, Src: 8, Dst: 7, DataBytes: 512})
	w.s.Run(2 * sim.Millisecond)
	if c.m.State() != Quiet {
		t.Fatalf("C state = %v", c.m.State())
	}
	// Two RTSes addressed to C while it defers.
	p2.Transmit(&frame.Frame{Type: frame.RTS, Src: 9, Dst: 3, DataBytes: 512, Seq: 1})
	w.s.Run(4 * sim.Millisecond)
	p1.Transmit(&frame.Frame{Type: frame.RTS, Src: 8, Dst: 3, DataBytes: 512, Seq: 2})
	w.s.Run(30 * sim.Millisecond) // defer ends, C contends with the RRTS
	w.s.Run(60 * sim.Millisecond)
	if got := c.m.Stats().RRTSSent; got != 1 {
		t.Fatalf("RRTSSent = %d, want exactly 1 (first RTS only)", got)
	}
}

func TestRRTSRecipientRespondsImmediately(t *testing.T) {
	// "The recipient of an RRTS immediately responds with an RTS" —
	// control rule 13, without a contention delay.
	w := newWorld(52)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	w.add(2, geom.V(6, 0, 6), DefaultOptions())
	a.m.Enqueue(pkt(2))
	// Freeze A in CONTEND, then deliver an RRTS from its destination.
	if a.m.State() != Contend {
		t.Fatal("not contending")
	}
	before := a.m.Stats().RTSSent
	probe := w.medium.Attach(2+7, geom.V(30, 30, 6), nil)
	_ = probe
	// Inject the RRTS directly from station 2's radio position via a
	// probe co-located with it is unnecessary — drive the handler.
	a.m.RadioReceive(&frame.Frame{Type: frame.RRTS, Src: 2, Dst: 1, DataBytes: 512})
	if a.m.Stats().RTSSent != before+1 {
		t.Fatal("RRTS recipient did not answer with an immediate RTS")
	}
	if a.m.State() != WFCTS {
		t.Fatalf("state = %v, want WFCTS", a.m.State())
	}
}

func TestRRTSRecipientIgnoresWithoutQueuedData(t *testing.T) {
	w := newWorld(53)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	a.m.RadioReceive(&frame.Frame{Type: frame.RRTS, Src: 2, Dst: 1, DataBytes: 512})
	if a.m.Stats().RTSSent != 0 {
		t.Fatal("answered an RRTS with no data queued")
	}
	if a.m.State() != Idle {
		t.Fatalf("state = %v", a.m.State())
	}
}

func TestNoCTSGrantWhileDeferHorizonActive(t *testing.T) {
	// A station that drops to IDLE mid-defer (e.g. out of a broken
	// exchange) must still not grant a CTS before its horizon passes.
	w := newWorld(54)
	c := w.add(3, geom.V(0, 0, 6), DefaultOptions())
	p1 := w.medium.Attach(8, geom.V(3, 0, 6), nil)
	p2 := w.medium.Attach(9, geom.V(-3, 0, 6), nil)
	// A DS puts C into a ~17ms defer.
	p1.Transmit(&frame.Frame{Type: frame.DS, Src: 8, Dst: 7, DataBytes: 512})
	w.s.Run(3 * sim.Millisecond)
	// An RTS addressed to C arrives mid-defer: no CTS allowed.
	p2.Transmit(&frame.Frame{Type: frame.RTS, Src: 9, Dst: 3, DataBytes: 512, Seq: 1})
	w.s.Run(8 * sim.Millisecond)
	if got := c.m.Stats().CTSSent; got != 0 {
		t.Fatalf("granted %d CTS during an active defer horizon", got)
	}
}

func TestMulticastRTSDefersAllForDataLength(t *testing.T) {
	// §3.3.4: "The overhearing stations can identify that the RTS is for
	// a multicast address, and therefore all stations defer for the
	// length of the following DATA transmission."
	w := newWorld(55)
	c := w.add(3, geom.V(3, 3, 6), DefaultOptions())
	probe := w.medium.Attach(9, geom.V(0, 0, 6), nil)
	probe.Transmit(&frame.Frame{Type: frame.RTS, Src: 9, Dst: frame.Broadcast, DataBytes: 512, Multicast: true})
	if !step(w, c.m, Quiet, 10*sim.Millisecond) {
		t.Fatalf("C state = %v after multicast RTS", c.m.State())
	}
	horizon := c.m.DeferUntil() - w.s.Now()
	if horizon < 15*sim.Millisecond || horizon > 17*sim.Millisecond {
		t.Fatalf("multicast defer horizon = %v, want ~16ms", horizon)
	}
}

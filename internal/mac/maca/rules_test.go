package maca

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
)

// Rule-by-rule tests for the Appendix A state machine.

func step(w *world, m *MACA, want State, deadline sim.Duration) bool {
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
	w := newWorld(71)
	a := w.addStation(1, geom.V(0, 0, 6))
	w.addStation(2, geom.V(6, 0, 6))
	a.m.Enqueue(pkt(2))
	if a.m.State() != Contend {
		t.Fatalf("state = %v, want CONTEND", a.m.State())
	}
}

func TestControlRule2CTSAndWFData(t *testing.T) {
	// "When B is in IDLE state and receives a RTS packet from A, it
	// transmits a Clear To Send (CTS) packet ... and goes to Wait For
	// Data (WFData) state."
	w := newWorld(72)
	a := w.addStation(1, geom.V(0, 0, 6))
	b := w.addStation(2, geom.V(6, 0, 6))
	a.m.Enqueue(pkt(2))
	if !step(w, b.m, WFData, 100*sim.Millisecond) {
		t.Fatalf("B state = %v, want WFDATA", b.m.State())
	}
	if b.m.Stats().CTSSent != 1 {
		t.Fatal("no CTS")
	}
}

func TestControlRules3and4DataExchange(t *testing.T) {
	// Rule 3: A in WFCTS receiving the CTS clears its timer and sends the
	// data; rule 4: B in WFData receiving the data returns to IDLE.
	w := newWorld(73)
	a := w.addStation(1, geom.V(0, 0, 6))
	b := w.addStation(2, geom.V(6, 0, 6))
	a.m.Enqueue(pkt(2))
	if !step(w, a.m, WFCTS, 100*sim.Millisecond) {
		t.Fatalf("A never reached WFCTS (state %v)", a.m.State())
	}
	if !step(w, a.m, SendData, 100*sim.Millisecond) {
		t.Fatalf("A never transmitted data (state %v)", a.m.State())
	}
	w.s.Run(100 * sim.Millisecond)
	if a.m.State() != Idle || b.m.State() != Idle {
		t.Fatalf("end states %v/%v", a.m.State(), b.m.State())
	}
	if len(b.delivered) != 1 {
		t.Fatal("no delivery")
	}
}

func TestDeferRule1OverheardRTS(t *testing.T) {
	// "When C hears an RTS packet from A to B, it goes from its current
	// state to the QUIET state, and sets a timer value sufficient for A
	// to hear B's CTS."
	w := newWorld(74)
	c := w.addStation(3, geom.V(3, 3, 6))
	probe := w.medium.Attach(9, geom.V(0, 0, 6), nil)
	probe.Transmit(&frame.Frame{Type: frame.RTS, Src: 9, Dst: 8, DataBytes: 512})
	if !step(w, c.m, Quiet, 10*sim.Millisecond) {
		t.Fatalf("C state = %v, want QUIET", c.m.State())
	}
}

func TestDeferRule2OverheardCTS(t *testing.T) {
	// "When D hears a CTS packet from B to A, it goes from its current
	// state to the QUIET state, and sets a timer value sufficient for B
	// to hear A's Data." After the defer, queued traffic flows.
	w := newWorld(75)
	d := w.addStation(4, geom.V(3, 3, 6))
	w.addStation(5, geom.V(6, 0, 6))
	probe := w.medium.Attach(9, geom.V(0, 0, 6), nil)
	probe.Transmit(&frame.Frame{Type: frame.CTS, Src: 9, Dst: 8, DataBytes: 512})
	if !step(w, d.m, Quiet, 10*sim.Millisecond) {
		t.Fatalf("D state = %v, want QUIET", d.m.State())
	}
	// The CTS defer must cover the announced 16 ms data transmission.
	d.m.Enqueue(pkt(5))
	w.s.Run(12 * sim.Millisecond)
	if got := d.m.Stats().RTSSent; got != 0 {
		t.Fatalf("transmitted %d RTS during the CTS defer", got)
	}
	w.s.Run(200 * sim.Millisecond)
	if got := d.m.Stats().RTSSent; got == 0 {
		t.Fatal("never transmitted after the defer ended")
	}
}

func TestTimeoutRule2BrokenExchangeReturnsToIdle(t *testing.T) {
	// "From any other state, when a timer expires, a station goes to the
	// IDLE state."
	w := newWorld(76)
	b := w.addStation(2, geom.V(6, 0, 6))
	probe := w.medium.Attach(9, geom.V(3, 0, 6), nil)
	probe.Transmit(&frame.Frame{Type: frame.RTS, Src: 9, Dst: 2, DataBytes: 512})
	if !step(w, b.m, WFData, 50*sim.Millisecond) {
		t.Fatalf("B state = %v, want WFDATA", b.m.State())
	}
	w.s.Run(200 * sim.Millisecond) // the data never comes
	if b.m.State() != Idle {
		t.Fatalf("B stuck in %v", b.m.State())
	}
}

func TestDeferringStationsDoNotAnswerWhileHorizonActive(t *testing.T) {
	// MACA's receiver answers only "if it is not currently deferring",
	// independent of the state the FSM happens to occupy.
	w := newWorld(77)
	c := w.addStation(3, geom.V(0, 0, 6))
	p1 := w.medium.Attach(8, geom.V(3, 0, 6), nil)
	p2 := w.medium.Attach(9, geom.V(-3, 0, 6), nil)
	// A long CTS defer at C.
	p1.Transmit(&frame.Frame{Type: frame.CTS, Src: 8, Dst: 7, DataBytes: 512})
	w.s.Run(3 * sim.Millisecond)
	// An RTS addressed to C mid-defer must not be answered.
	p2.Transmit(&frame.Frame{Type: frame.RTS, Src: 9, Dst: 3, DataBytes: 512})
	w.s.Run(8 * sim.Millisecond)
	if got := c.m.Stats().CTSSent; got != 0 {
		t.Fatalf("deferring MACA station answered %d RTS", got)
	}
}

// TestNeverWedgesUnderArbitraryFrames injects random frames and checks the
// engine always drains its queue once injections stop.
func TestNeverWedgesUnderArbitraryFrames(t *testing.T) {
	types := []frame.Type{frame.RTS, frame.CTS, frame.DS, frame.DATA, frame.ACK, frame.RRTS, frame.NACK, frame.TOKEN}
	for seed := int64(1); seed <= 10; seed++ {
		w := newWorld(seed)
		a := w.addStation(1, geom.V(0, 0, 6))
		w.addStation(2, geom.V(6, 0, 6))
		r := w.s.NewRand()
		for i := 0; i < 3; i++ {
			a.m.Enqueue(pkt(2))
		}
		for i := 0; i < 300; i++ {
			f := &frame.Frame{
				Type:      types[r.Intn(len(types))],
				Src:       frame.NodeID(2 + r.Intn(4)),
				Dst:       frame.NodeID(1 + r.Intn(5)),
				DataBytes: uint16(r.Intn(600)),
				Seq:       uint32(r.Intn(6)),
			}
			if !a.m.Env.Radio.Transmitting() {
				a.m.RadioReceive(f)
				a.m.RadioCarrier(r.Intn(2) == 0)
			}
			w.s.Run(w.s.Now() + sim.Duration(r.Intn(3))*sim.Millisecond)
		}
		w.s.Run(w.s.Now() + 120*sim.Second)
		if a.m.QueueLen() > 0 {
			t.Fatalf("seed %d: %d packets stuck (state %v)", seed, a.m.QueueLen(), a.m.State())
		}
	}
}

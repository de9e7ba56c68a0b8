package macaw

// Regression tests for defects flushed out by the protocol-conformance
// oracle (internal/oracle). Each test pins the engine-level fix for one
// audited rule breach at the choreography that originally triggered it.

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// sniffer is a bare radio handler recording reception times by frame type.
type sniffer struct {
	s  *sim.Simulator
	rx map[frame.Type][]sim.Time
}

func newSniffer(s *sim.Simulator) *sniffer {
	return &sniffer{s: s, rx: make(map[frame.Type][]sim.Time)}
}

func (sn *sniffer) RadioReceive(f *frame.Frame) {
	sn.rx[f.Type] = append(sn.rx[f.Type], sn.s.Now())
}

func (sn *sniffer) RadioCarrier(bool) {}

func testRTS(src, dst frame.NodeID, seq, esn uint32) *frame.Frame {
	return &frame.Frame{
		Type: frame.RTS, Src: src, Dst: dst, Seq: seq, ESN: esn,
		DataBytes: frame.DefaultDataBytes, LocalBackoff: 2, RemoteBackoff: frame.IDontKnow,
	}
}

// TestGrantedRTSSatisfiesRRTSNote pins the fix for the oracle's ORD-RRTS
// finding (table6, seed 1): a station noted an RTS while deferring, later
// granted the sender's own retry directly — completing the exchange — and
// then still transmitted the RRTS, soliciting a transmission the sender no
// longer had pending. A direct grant of the noted sender's RTS must
// satisfy the note.
func TestGrantedRTSSatisfiesRRTSNote(t *testing.T) {
	w := newWorld(3)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	w.s.After(0, func() {
		// The note is armed for station 2, as if its RTS had arrived
		// during a defer period...
		a.m.hasRRTS = true
		a.m.rrtsFor = 2
		a.m.rrtsSeen = w.s.Now()
		// ...and now the same sender retries while the station is free.
		a.m.RadioReceive(testRTS(2, 1, 11, 1))
		if got := a.m.Stats().CTSSent; got != 1 {
			t.Fatalf("CTSSent = %d, want 1 (retry should be granted)", got)
		}
		if a.m.hasRRTS {
			t.Fatal("RRTS note survived a direct grant of the noted sender's RTS")
		}
	})
	w.s.Run(2 * sim.Second)
	if got := a.m.Stats().RRTSSent; got != 0 {
		t.Fatalf("RRTSSent = %d: stale RRTS transmitted after the noted sender was granted directly", got)
	}
}

// TestRebootedPeerSeqCollisionGetsCTS pins the fix for the oracle's ORD-ACK
// finding (chaos, macaw, seed 32): a crashed-and-restarted sender reused a
// sequence number its previous lifetime had already gotten acknowledged, and
// the receiver's stale dedup state answered the new packet's RTS with a
// repeated ACK (control rule 7) — silently losing it. An ESN regression
// marks the reboot and must drop the dead lifetime's dedup state.
func TestRebootedPeerSeqCollisionGetsCTS(t *testing.T) {
	// Same lifetime first: a repeat RTS for the acknowledged exchange is
	// answered with the ACK again, not a CTS (control rule 7 is intact).
	w := newWorld(5)
	b := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	w.s.After(0, func() {
		pe := b.m.peers.Add(2)
		pe.everAcked, pe.lastAcked = true, 7
		pe.seenESN = 9
		b.m.RadioReceive(testRTS(2, 1, 7, 9))
		if s := b.m.Stats(); s.ACKSent != 1 || s.CTSSent != 0 {
			t.Fatalf("same-lifetime repeat RTS: ACKSent=%d CTSSent=%d, want 1/0", s.ACKSent, s.CTSSent)
		}
	})
	w.s.Run(sim.Second)

	// After a reboot the same (seq, dedup) collision is a brand-new
	// packet: the regressed ESN must resynchronize the receiver, which
	// grants a CTS instead of replaying the stale ACK.
	w2 := newWorld(5)
	b2 := w2.add(1, geom.V(0, 0, 6), DefaultOptions())
	w2.s.After(0, func() {
		pe := b2.m.peers.Add(2)
		pe.everAcked, pe.lastAcked = true, 7
		pe.seenESN = 9
		b2.m.RadioReceive(testRTS(2, 1, 7, 2))
		if s := b2.m.Stats(); s.CTSSent != 1 || s.ACKSent != 0 {
			t.Fatalf("post-reboot colliding RTS: CTSSent=%d ACKSent=%d, want 1/0", s.CTSSent, s.ACKSent)
		}
	})
	w2.s.Run(sim.Second)
}

// TestSeqOriginRandomPerLifetime: each MAC lifetime numbers its packets from
// a random origin drawn from its own stream, so two instances — or two
// lifetimes of one station — do not start from the same point and hand a
// peer's stale dedup state an easy collision.
func TestSeqOriginRandomPerLifetime(t *testing.T) {
	w := newWorld(9)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	if a.m.Seq == b.m.Seq {
		t.Fatalf("two instances share seq origin %d", a.m.Seq)
	}
	if a.m.Seq == 0 && b.m.Seq == 0 {
		t.Fatal("seq origins not randomized")
	}
}

// TestContendRedrawWhenDeferHorizonMoves pins the §3.2 slot rule backstop:
// "a transmission must begin an integer number of slot times — at least one
// — after the end of the last defer period". If the defer horizon moves
// under an armed contention timer, the timeout must redraw from the new
// horizon instead of transmitting inside the forbidden band.
func TestContendRedrawWhenDeferHorizonMoves(t *testing.T) {
	w := newWorld(6)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	sn := newSniffer(w.s)
	w.medium.Attach(99, geom.V(1, 0, 6), sn)
	slot := mac.DefaultConfig().Slot()
	var horizon sim.Time
	w.s.After(0, func() {
		a.m.Enqueue(pkt(2))
		if a.m.State() != Contend {
			t.Fatal("enqueue did not start contention")
		}
		// Move the horizon to just past the armed fire time: firing as
		// armed would start a transmission less than one slot after it.
		horizon = a.m.TimerWhen() + slot/2
		a.m.deferUntil = horizon
	})
	w.s.Run(2 * sim.Second)
	rts := sn.rx[frame.RTS]
	if len(rts) == 0 {
		t.Fatal("no RTS ever transmitted")
	}
	// The sniffer sees the frame one control-airtime (= one slot) after
	// it begins, so a legal start at horizon+slot arrives at horizon+2·slot.
	if rts[0] < horizon+2*slot {
		t.Fatalf("RTS heard at %v — began inside one slot of the defer horizon %v", rts[0], horizon)
	}
}

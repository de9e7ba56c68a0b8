package macaw

import (
	"math/rand"
	"slices"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

func pbOptions() Options {
	o := DefaultOptions()
	o.PiggybackACK = true
	return o
}

func TestPiggybackDeliversBacklogWithFewerACKs(t *testing.T) {
	run := func(opt Options) (delivered, acks, sent int) {
		w := newWorld(31)
		a := w.add(1, geom.V(0, 0, 6), opt)
		b := w.add(2, geom.V(6, 0, 6), opt)
		for i := 0; i < 40; i++ {
			a.m.Enqueue(pkt(2))
		}
		w.s.Run(30 * sim.Second)
		return len(b.delivered), b.m.Stats().ACKSent, a.sent
	}
	dPlain, ackPlain, sentPlain := run(DefaultOptions())
	dPb, ackPb, sentPb := run(pbOptions())
	if dPlain != 40 || dPb != 40 {
		t.Fatalf("deliveries: plain=%d piggyback=%d, want 40", dPlain, dPb)
	}
	if sentPlain != 40 || sentPb != 40 {
		t.Fatalf("sender completions: plain=%d piggyback=%d, want 40", sentPlain, sentPb)
	}
	// Piggyback mode must suppress most explicit ACKs: only the last
	// packet of each backlog burst requests one.
	if ackPb >= ackPlain/2 {
		t.Fatalf("piggyback sent %d explicit ACKs vs plain %d", ackPb, ackPlain)
	}
	if ackPb == 0 {
		t.Fatal("the final single-packet exchange must still request an ACK")
	}
}

func TestPiggybackThroughputGain(t *testing.T) {
	// Removing one ACK slot per data packet buys a few percent of
	// throughput on a saturated stream.
	run := func(opt Options) int {
		w := newWorld(32)
		a := w.add(1, geom.V(0, 0, 6), opt)
		b := w.add(2, geom.V(6, 0, 6), opt)
		for i := 0; i < 5000; i++ {
			a.m.Enqueue(pkt(2))
		}
		w.s.Run(30 * sim.Second)
		return len(b.delivered)
	}
	plain := run(DefaultOptions())
	pb := run(pbOptions())
	if pb <= plain {
		t.Fatalf("piggyback %d not above plain %d", pb, plain)
	}
}

// dataSeqDropper corrupts the nth distinct DATA frame at its destination,
// once. MAC sequence numbers start at a random per-lifetime origin, so the
// target is identified by position in the stream rather than absolute seq.
type dataSeqDropper struct {
	nth      int
	lastSeq  uint32
	distinct int
	done     bool
}

func (d *dataSeqDropper) Corrupts(_ *rand.Rand, rx *phy.Radio, f *frame.Frame) bool {
	if d.done || f.Type != frame.DATA || f.Dst != rx.ID() {
		return false
	}
	if d.distinct == 0 || f.Seq != d.lastSeq {
		d.distinct++
		d.lastSeq = f.Seq
	}
	if d.distinct == d.nth {
		d.done = true
		return true
	}
	return false
}

func TestPiggybackRecoversLostUnackedData(t *testing.T) {
	// The risky case: a DATA frame sent without an ack request is lost.
	// The next CTS's piggybacked ack (for the previous seq) must trigger
	// a retransmission, and every packet must still arrive exactly once.
	w := newWorld(33)
	w.medium.SetNoise(&dataSeqDropper{nth: 3})
	a := w.add(1, geom.V(0, 0, 6), pbOptions())
	b := w.add(2, geom.V(6, 0, 6), pbOptions())
	for i := 0; i < 10; i++ {
		a.m.Enqueue(pkt(2))
	}
	w.s.Run(30 * sim.Second)
	if len(b.delivered) != 10 {
		t.Fatalf("delivered %d, want 10 (lost unacked data must be retransmitted)", len(b.delivered))
	}
	if a.sent != 10 {
		t.Fatalf("sender completions = %d, want 10", a.sent)
	}
	if a.m.Stats().Retries == 0 {
		t.Fatal("no retransmission recorded for the lost packet")
	}
}

func TestPiggybackOrderPreserved(t *testing.T) {
	w := newWorld(34)
	w.medium.SetNoise(&dataSeqDropper{nth: 5})
	a := w.add(1, geom.V(0, 0, 6), pbOptions())
	b := w.add(2, geom.V(6, 0, 6), pbOptions())
	for i := 0; i < 12; i++ {
		a.m.Enqueue(&mac.Packet{Dst: 2, Size: frame.DefaultDataBytes, Payload: []byte{byte(i)}})
	}
	w.s.Run(30 * sim.Second)
	if len(b.payloads) != 12 {
		t.Fatalf("delivered %d, want 12", len(b.payloads))
	}
	// The lost packet is retransmitted before its successors' payloads
	// continue, so the delivery order matches the enqueue order.
	for i, p := range b.payloads {
		if len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("delivery %d carried tag %v, want %d", i, p, i)
		}
	}
}

// TestHaltDropsPendingInPeerOrder: the packets awaiting a piggybacked
// confirmation die with the station, reported in ascending destination
// order whatever order their records were written in.
func TestHaltDropsPendingInPeerOrder(t *testing.T) {
	w := newWorld(35)
	a := w.add(1, geom.V(0, 0, 6), pbOptions())
	var got []frame.NodeID
	a.m.Env.Callbacks.Dropped = func(p *mac.Packet, why mac.DropReason) {
		if why != mac.DropDisabled {
			t.Errorf("packet to %v dropped for %v, want %v", p.Dst, why, mac.DropDisabled)
		}
		got = append(got, p.Dst)
	}
	for _, d := range []frame.NodeID{9, 3, 7, 5} {
		a.m.pending.Add(d).pkt = pkt(d)
	}
	a.m.pending.Add(6).retries = 1 // a lost packet's count, the packet requeued
	a.m.peers.Add(4).attempts = 2
	a.m.Halt()
	if want := []frame.NodeID{3, 5, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("Halt dropped pending packets to %v, want %v", got, want)
	}
	for _, d := range []frame.NodeID{3, 5, 7, 9} {
		if a.m.pending.Value(d).pkt != nil {
			t.Errorf("the packet pending for %v survived Halt", d)
		}
	}
}

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
	"macaw/internal/statecheck"
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

// scriptedPeer is station 2 as a bare radio that answers a MACAW sender by
// script: each RTS gets a CTS whose piggybacked ack claims ack as the last
// packet to arrive, or, when standalone is set, a standalone ACK for that
// packet instead, which becomes the new claim; a DATA frame that asks for
// an ACK gets one. It counts the DATA frames it hears by sequence number.
type scriptedPeer struct {
	radio      *phy.Radio
	ack        uint32
	standalone uint32
	data       map[uint32]int
}

func (p *scriptedPeer) RadioReceive(f *frame.Frame) {
	if f.Dst != p.radio.ID() {
		return
	}
	reply := frame.Frame{Src: p.radio.ID(), Dst: f.Src}
	switch {
	case f.Type == frame.RTS && p.standalone != 0:
		reply.Type, reply.Seq = frame.ACK, p.standalone
		p.ack, p.standalone = p.standalone, 0
	case f.Type == frame.RTS:
		reply.Type, reply.DataBytes, reply.Seq = frame.CTS, f.DataBytes, f.Seq
		reply.HasAck, reply.Ack = true, p.ack
	case f.Type == frame.DATA:
		p.data[f.Seq]++
		if !f.AckRequested {
			return
		}
		reply.Type, reply.Seq = frame.ACK, f.Seq
	default:
		return
	}
	p.radio.Transmit(&reply)
}

func (p *scriptedPeer) RadioCarrier(bool) {}

// TestPiggybackStandaloneACKRestoresRetryBudget: a held packet that was
// retransmitted once and is then confirmed by a standalone ACK, not by a
// CTS, must leave no retry count behind. The next packet held for the same
// peer, whose data every later CTS reports lost, is retransmitted
// MaxRetries times before it is dropped, as a packet held for a fresh peer
// would be.
func TestPiggybackStandaloneACKRestoresRetryBudget(t *testing.T) {
	w := newWorld(36)
	a := w.add(1, geom.V(0, 0, 6), pbOptions())
	peer := &scriptedPeer{data: map[uint32]int{}}
	peer.radio = w.medium.Attach(2, geom.V(6, 0, 6), peer)
	p1, p2, p3 := pkt(2), pkt(2), pkt(2)
	for _, p := range []*mac.Packet{p1, p2, p3} {
		a.m.Enqueue(p)
	}
	// p1 goes out held; the CTS for p2 reports it lost, so it is
	// retransmitted, and held again.
	for peer.data[p1.Seq()] < 2 || a.m.pending.Value(2).pkt == nil {
		if !w.s.Step() {
			t.Fatal("the simulation ran dry before p1 was retransmitted")
		}
	}
	if h := a.m.pending.Value(2); h.pkt != p1 || h.retries != 1 {
		t.Fatalf("after the retransmission the held record is %+v, want p1 with 1 retry", h)
	}
	// The next RTS draws a standalone ACK for p1; from then on every CTS
	// claims p1 as the last arrival, so p2 is reported lost on each lap.
	peer.standalone = p1.Seq()
	for a.dropped == 0 && w.s.Now() < 10*sim.Second {
		if !w.s.Step() {
			break
		}
	}
	if a.sent != 1 || a.dropped != 1 {
		t.Fatalf("completions: %d sent, %d dropped; want p1 sent and p2 dropped", a.sent, a.dropped)
	}
	if got, want := peer.data[p2.Seq()], a.m.Env.Cfg.MaxRetries+1; got != want {
		t.Fatalf("p2's data went out %d times before its drop, want %d: the standalone ACK left p1's retry count behind", got, want)
	}
}

// TestSparesEngineRebuiltInPlace builds two piggybacking stations in the
// records of engines that were cut off mid-run, with queued packets,
// packets held for confirmation and per-peer records toward three peers,
// and requires them to run a lossy exchange exactly as new engines do:
// the same deliveries and completions, and the same state dump at the end.
func TestSparesEngineRebuiltInPlace(t *testing.T) {
	donors := func() []mac.Engine {
		w := newWorld(38)
		var sts []*station
		for i := 0; i < 4; i++ {
			sts = append(sts, w.add(frame.NodeID(i+1), geom.V(float64(3*i), 0, 6), pbOptions()))
		}
		for k := 0; k < 10; k++ {
			for i, st := range sts {
				for j := range sts {
					if j != i {
						st.m.Enqueue(pkt(frame.NodeID(j + 1)))
					}
				}
			}
		}
		w.s.Run(1500 * sim.Millisecond)
		if sts[0].m.peers.Len() < 3 || sts[0].m.QueueLen() == 0 {
			t.Fatalf("the donor holds %d peer records and %d queued packets", sts[0].m.peers.Len(), sts[0].m.QueueLen())
		}
		return []mac.Engine{sts[0].m, sts[1].m}
	}
	run := func(spares []mac.Engine) (string, []*station) {
		w := newWorld(37)
		w.medium.SetNoise(&dataSeqDropper{nth: 3})
		a := w.addIn(1, geom.V(0, 0, 6), pbOptions(), spares[0])
		b := w.addIn(2, geom.V(6, 0, 6), pbOptions(), spares[1])
		for i := 0; i < 30; i++ {
			a.m.Enqueue(pkt(2))
			b.m.Enqueue(pkt(1))
		}
		w.s.Run(3 * sim.Second)
		return string(statecheck.Dump([]*MACAW{a.m, b.m})), []*station{a, b}
	}
	want, fresh := run(make([]mac.Engine, 2))
	spares := donors()
	got, reused := run(spares)
	for i, st := range reused {
		if st.m != spares[i] {
			t.Fatalf("station %d's engine was not built in the spare's record", i+1)
		}
		if f := fresh[i]; st.sent != f.sent || st.dropped != f.dropped || len(st.delivered) != len(f.delivered) {
			t.Errorf("station %d: %d sent, %d dropped, %d delivered; a new engine %d, %d, %d",
				i+1, st.sent, st.dropped, len(st.delivered), f.sent, f.dropped, len(f.delivered))
		}
	}
	if got != want {
		t.Error("engines built in spare records dump differently from new ones")
	}
}

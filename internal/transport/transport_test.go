package transport

import (
	"errors"
	"testing"
	"testing/quick"

	"macaw/internal/frame"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// pipeEnd is an in-memory Endpoint connecting two transport agents with a
// fixed one-way delay and an optional drop filter, standing in for the MAC.
type pipeEnd struct {
	s        *sim.Simulator
	id       frame.NodeID
	peer     *pipeEnd
	delay    sim.Duration
	drop     func(seg Segment) bool
	handlers []func(src frame.NodeID, seg Segment)
}

func newPipe(s *sim.Simulator, delay sim.Duration) (*pipeEnd, *pipeEnd) {
	a := &pipeEnd{s: s, id: 1, delay: delay}
	b := &pipeEnd{s: s, id: 2, delay: delay}
	a.peer, b.peer = b, a
	return a, b
}

func (p *pipeEnd) SendSegment(dst frame.NodeID, seg Segment, size int) {
	if size <= 0 {
		panic("bad segment size")
	}
	if p.drop != nil && p.drop(seg) {
		return
	}
	peer := p.peer
	p.s.After(p.delay, func() {
		for _, h := range peer.handlers {
			h(p.id, seg)
		}
	})
}

func (p *pipeEnd) Clock() *sim.Simulator { return p.s }

func (p *pipeEnd) on(h func(src frame.NodeID, seg Segment)) { p.handlers = append(p.handlers, h) }

func TestSegmentRoundTrip(t *testing.T) {
	s := Segment{Proto: ProtoTCP, Stream: 7, Kind: KindAck, Seq: 100, Ack: 99}
	got, err := UnmarshalSegment(encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
}

// encode returns s's header in a buffer of its own.
func encode(s Segment) []byte {
	b := make([]byte, HeaderLen)
	s.Put(b)
	return b
}

func TestSegmentPutWritesOnlyTheHeader(t *testing.T) {
	b := []byte("0123456789abcdef")
	Segment{Proto: ProtoUDP, Stream: 2, Kind: KindData, Seq: 5}.Put(b)
	if string(b[HeaderLen:]) != "cdef" {
		t.Fatalf("Put wrote past the header: %q", b[HeaderLen:])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put into a short buffer did not panic")
		}
	}()
	Segment{}.Put(make([]byte, HeaderLen-1))
}

func TestSegmentShortBuffer(t *testing.T) {
	if _, err := UnmarshalSegment(make([]byte, 3)); !errors.Is(err, ErrShortSegment) {
		t.Fatalf("err = %v", err)
	}
}

func TestSegmentString(t *testing.T) {
	if got := (Segment{Kind: KindData, Stream: 1, Seq: 2}).String(); got != "DATA stream=1 seq=2 ack=0" {
		t.Fatalf("String = %q", got)
	}
	if got := (Segment{Kind: KindAck, Stream: 1, Ack: 3}).String(); got != "ACK stream=1 seq=0 ack=3" {
		t.Fatalf("String = %q", got)
	}
}

func TestQuickSegmentRoundTrip(t *testing.T) {
	f := func(proto, kind uint8, stream uint16, seq, ack uint32) bool {
		s := Segment{Proto: Proto(proto), Stream: stream, Kind: Kind(kind), Seq: seq, Ack: ack}
		got, err := UnmarshalSegment(encode(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUDPDelivery(t *testing.T) {
	s := sim.New(1)
	a, b := newPipe(s, sim.Millisecond)
	snd := NewUDPSender(a, 2, 1)
	rcv := NewUDPReceiver(1)
	var seqs []uint32
	rcv.OnDeliver = func(seq uint32) { seqs = append(seqs, seq) }
	b.on(rcv.Handle)
	for i := 0; i < 5; i++ {
		snd.Offer()
	}
	s.RunAll()
	if snd.Sent() != 5 || rcv.Received() != 5 {
		t.Fatalf("sent=%d received=%d", snd.Sent(), rcv.Received())
	}
	for i, q := range seqs {
		if q != uint32(i+1) {
			t.Fatalf("seqs = %v", seqs)
		}
	}
}

func TestUDPReceiverFiltersForeignStreams(t *testing.T) {
	rcv := NewUDPReceiver(1)
	rcv.Handle(1, Segment{Proto: ProtoUDP, Stream: 2, Kind: KindData, Seq: 1})
	rcv.Handle(1, Segment{Proto: ProtoTCP, Stream: 1, Kind: KindData, Seq: 1})
	rcv.Handle(1, Segment{Proto: ProtoUDP, Stream: 1, Kind: KindAck, Seq: 1})
	if rcv.Received() != 0 {
		t.Fatal("receiver accepted foreign segments")
	}
}

// tcpPair wires a sender and receiver over a pipe.
func tcpPair(s *sim.Simulator, delay sim.Duration, cfg TCPConfig) (*TCPSender, *TCPReceiver, *pipeEnd, *pipeEnd) {
	a, b := newPipe(s, delay)
	snd := NewTCPSender(a, 2, 1, cfg)
	rcv := NewTCPReceiver(b, 1)
	a.on(snd.Handle)
	b.on(rcv.Handle)
	return snd, rcv, a, b
}

func TestTCPInOrderDelivery(t *testing.T) {
	s := sim.New(1)
	snd, rcv, _, _ := tcpPair(s, sim.Millisecond, DefaultTCPConfig())
	var seqs []uint32
	rcv.OnDeliver = func(seq uint32) { seqs = append(seqs, seq) }
	for i := 0; i < 50; i++ {
		snd.Offer()
	}
	s.RunAll()
	if rcv.Delivered() != 50 || snd.Acked() != 50 {
		t.Fatalf("delivered=%d acked=%d", rcv.Delivered(), snd.Acked())
	}
	for i, q := range seqs {
		if q != uint32(i+1) {
			t.Fatalf("out of order at %d: %v", i, seqs[:i+1])
		}
	}
	if st := snd.Stats(); st.Retransmits != 0 || st.Timeouts != 0 {
		t.Fatalf("lossless run retransmitted: %+v", st)
	}
}

func TestTCPWindowLimitsInFlight(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultTCPConfig()
	cfg.Window = 4
	// Large delay so nothing is acked while we check.
	snd, _, _, _ := tcpPair(s, sim.Second, cfg)
	for i := 0; i < 20; i++ {
		snd.Offer()
	}
	if got := snd.Stats().Sent; got != 4 {
		t.Fatalf("sent %d before acks, want window of 4", got)
	}
	s.RunAll()
	if snd.Acked() != 20 {
		t.Fatalf("acked = %d", snd.Acked())
	}
}

func TestTCPRecoversFromLossViaTimeoutWithMinRTOStall(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultTCPConfig()
	cfg.DupAckThreshold = 0 // force timeout-driven recovery
	cfg.Window = 1          // no dupacks possible anyway
	snd, rcv, a, _ := tcpPair(s, sim.Millisecond, cfg)
	dropped := false
	a.drop = func(seg Segment) bool {
		if seg.Kind == KindData && seg.Seq == 3 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	var deliverTimes []sim.Time
	rcv.OnDeliver = func(uint32) { deliverTimes = append(deliverTimes, s.Now()) }
	for i := 0; i < 5; i++ {
		snd.Offer()
	}
	s.RunAll()
	if rcv.Delivered() != 5 {
		t.Fatalf("delivered = %d", rcv.Delivered())
	}
	if !dropped || snd.Stats().Timeouts == 0 {
		t.Fatal("loss was not exercised")
	}
	// The gap between deliveries 2 and 3 must include the >= 0.5 s RTO
	// stall the paper blames for MACA's noise sensitivity.
	gap := deliverTimes[2] - deliverTimes[1]
	if gap < 500*sim.Millisecond {
		t.Fatalf("recovery gap %v < MinRTO 0.5s", gap)
	}
}

func TestTCPFastRetransmitBeatsRTO(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultTCPConfig()
	cfg.Window = 8
	snd, rcv, a, _ := tcpPair(s, sim.Millisecond, cfg)
	dropped := false
	a.drop = func(seg Segment) bool {
		if seg.Kind == KindData && seg.Seq == 1 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	for i := 0; i < 10; i++ {
		snd.Offer()
	}
	s.RunAll()
	if rcv.Delivered() != 10 {
		t.Fatalf("delivered = %d", rcv.Delivered())
	}
	st := snd.Stats()
	if st.FastRetransmits == 0 {
		t.Fatalf("expected a fast retransmit: %+v", st)
	}
	if s.Now() >= 500*sim.Millisecond {
		t.Fatalf("fast retransmit should finish before the RTO floor; took %v", s.Now())
	}
}

func TestTCPRTOExponentialBackoff(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultTCPConfig()
	snd, _, a, _ := tcpPair(s, sim.Millisecond, cfg)
	a.drop = func(Segment) bool { return true } // black hole
	snd.Offer()
	s.Run(10 * sim.Second)
	st := snd.Stats()
	// 0.5 + 1 + 2 + 4 = 7.5s for 4 timeouts; a 5th lands at 15.5s.
	if st.Timeouts != 4 {
		t.Fatalf("timeouts in 10s = %d, want 4 (exponential backoff)", st.Timeouts)
	}
}

func TestTCPRTONeverBelowFloor(t *testing.T) {
	s := sim.New(1)
	snd, _, _, _ := tcpPair(s, 10*sim.Microsecond, DefaultTCPConfig())
	for i := 0; i < 100; i++ {
		snd.Offer()
	}
	s.RunAll()
	if snd.RTO() < 500*sim.Millisecond {
		t.Fatalf("RTO %v below the 0.5s floor despite tiny RTTs", snd.RTO())
	}
}

func TestTCPReceiverReordersAndAcksCumulatively(t *testing.T) {
	s := sim.New(1)
	_, b := newPipe(s, sim.Millisecond)
	rcv := NewTCPReceiver(b, 1)
	var acks []uint32
	b.peer.on(func(_ frame.NodeID, seg Segment) {
		if seg.Kind == KindAck {
			acks = append(acks, seg.Ack)
		}
	})
	var order []uint32
	rcv.OnDeliver = func(q uint32) { order = append(order, q) }
	rcv.Handle(1, Segment{Proto: ProtoTCP, Stream: 1, Kind: KindData, Seq: 2})
	rcv.Handle(1, Segment{Proto: ProtoTCP, Stream: 1, Kind: KindData, Seq: 3})
	rcv.Handle(1, Segment{Proto: ProtoTCP, Stream: 1, Kind: KindData, Seq: 1})
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("delivery order = %v", order)
	}
	if len(acks) != 3 || acks[0] != 1 || acks[1] != 1 || acks[2] != 4 {
		t.Fatalf("acks = %v, want [1 1 4]", acks)
	}
}

func TestTCPReceiverCountsDuplicates(t *testing.T) {
	s := sim.New(1)
	_, b := newPipe(s, sim.Millisecond)
	rcv := NewTCPReceiver(b, 1)
	rcv.Handle(1, Segment{Proto: ProtoTCP, Stream: 1, Kind: KindData, Seq: 1})
	rcv.Handle(1, Segment{Proto: ProtoTCP, Stream: 1, Kind: KindData, Seq: 1})
	rcv.Handle(1, Segment{Proto: ProtoTCP, Stream: 1, Kind: KindData, Seq: 3})
	rcv.Handle(1, Segment{Proto: ProtoTCP, Stream: 1, Kind: KindData, Seq: 3})
	s.RunAll()
	if rcv.Dups() != 2 {
		t.Fatalf("dups = %d, want 2", rcv.Dups())
	}
	if rcv.Delivered() != 1 {
		t.Fatalf("delivered = %d, want 1", rcv.Delivered())
	}
}

func TestTCPZeroWindowClamped(t *testing.T) {
	s := sim.New(1)
	a, _ := newPipe(s, sim.Millisecond)
	snd := NewTCPSender(a, 2, 1, TCPConfig{Window: 0, MinRTO: sim.Second, MaxRTO: 2 * sim.Second})
	snd.Offer()
	if snd.Stats().Sent != 1 {
		t.Fatal("zero window not clamped to 1")
	}
}

// lossyEnd is an Endpoint whose every segment is lost.
type lossyEnd struct{ s *sim.Simulator }

func (e lossyEnd) SendSegment(frame.NodeID, Segment, int) {}
func (e lossyEnd) Clock() *sim.Simulator                  { return e.s }

// TestRTOTimerAllocationFree pins DESIGN.md §8's no-per-event-allocation
// rule for TCP: the retransmission timer is armed with the receiver and a
// method expression riding in a pooled event record, so a timeout that
// retransmits and re-arms allocates nothing.
func TestRTOTimerAllocationFree(t *testing.T) {
	s := sim.New(1)
	snd := NewTCPSender(lossyEnd{s}, 2, 1, DefaultTCPConfig())
	snd.Offer()
	if n := statecheck.Mallocs(t, 20, func() { s.Step() }); n != 0 {
		t.Fatalf("an RTO firing allocated %d times, want 0", n)
	}
	if got := snd.Stats().Timeouts; got != 80 {
		t.Fatalf("%d timeouts, want 80", got)
	}
}

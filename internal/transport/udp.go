package transport

import "macaw/internal/frame"

// UDPSender is the fire-and-forget datagram sender used by most of the
// paper's experiments ("the devices generate data at a constant rate ...
// using UDP for transport").
type UDPSender struct {
	ep     Endpoint
	dst    frame.NodeID
	stream uint16
	next   uint32
	sent   int
}

// NewUDPSender returns a sender for one (destination, stream) pair, as a
// value a host can keep in a record of its own.
func NewUDPSender(ep Endpoint, dst frame.NodeID, stream uint16) UDPSender {
	return UDPSender{ep: ep, dst: dst, stream: stream}
}

// Offer submits one data packet and returns its sequence number.
func (u *UDPSender) Offer() uint32 {
	u.next++
	u.sent++
	u.ep.SendSegment(u.dst, Segment{Proto: ProtoUDP, Stream: u.stream, Kind: KindData, Seq: u.next}, DataBytes)
	return u.next
}

// Sent reports the number of packets offered so far.
func (u *UDPSender) Sent() int { return u.sent }

// UDPReceiver counts datagrams as they arrive; duplicates are impossible at
// the UDP layer (the MAC already suppresses link-level duplicates).
type UDPReceiver struct {
	stream   uint16
	received int
	// OnDeliver, if set, observes each arrival.
	OnDeliver func(seq uint32)
}

// NewUDPReceiver returns a receiver for one stream, as a value a host can
// keep in a record of its own.
func NewUDPReceiver(stream uint16) UDPReceiver { return UDPReceiver{stream: stream} }

// Handle processes an incoming segment for this stream.
func (u *UDPReceiver) Handle(src frame.NodeID, seg Segment) {
	if seg.Proto != ProtoUDP || seg.Stream != u.stream || seg.Kind != KindData {
		return
	}
	u.received++
	if u.OnDeliver != nil {
		u.OnDeliver(seg.Seq)
	}
}

// Received reports the number of datagrams delivered.
func (u *UDPReceiver) Received() int { return u.received }

// Package transport provides the transport substrate the paper's simulator
// contains ("The simulator ... contains the following components: a traffic
// generator ..., TCP, UDP, IP, pads, and base stations"): a UDP-like
// datagram service and a simplified TCP with sliding window, cumulative
// acknowledgements, and the coarse retransmission timer whose 0.5 s minimum
// §3.3.1 cites as the reason link-level recovery matters.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"macaw/internal/frame"
	"macaw/internal/sim"
)

// Proto identifies the transport protocol of a segment.
type Proto uint8

// Protocols.
const (
	ProtoUDP Proto = 1
	ProtoTCP Proto = 2
)

// Kind distinguishes data segments from acknowledgements.
type Kind uint8

// Segment kinds.
const (
	KindData Kind = 1
	KindAck  Kind = 2
)

// HeaderLen is the encoded segment header size in bytes.
const HeaderLen = 12

// DataBytes is the on-air size of a transport data packet (the paper's 512
// bytes) and AckBytes the size of a TCP acknowledgement packet.
const (
	DataBytes = frame.DefaultDataBytes
	AckBytes  = 40
)

// Segment is a transport-layer packet carried as a MAC payload.
type Segment struct {
	Proto  Proto
	Stream uint16 // stream identifier, scoping Seq/Ack
	Kind   Kind
	Seq    uint32 // sequence number of a data segment
	Ack    uint32 // cumulative ack: next expected sequence number
}

// String renders the segment for traces.
func (s Segment) String() string {
	k := "DATA"
	if s.Kind == KindAck {
		k = "ACK"
	}
	return fmt.Sprintf("%s stream=%d seq=%d ack=%d", k, s.Stream, s.Seq, s.Ack)
}

// Put encodes the segment header into b[:HeaderLen]. It panics if b is
// shorter than HeaderLen.
func (s Segment) Put(b []byte) {
	_ = b[HeaderLen-1] // one bounds check for the writes below
	b[0] = byte(s.Proto)
	binary.BigEndian.PutUint16(b[1:], s.Stream)
	b[3] = byte(s.Kind)
	binary.BigEndian.PutUint32(b[4:], s.Seq)
	binary.BigEndian.PutUint32(b[8:], s.Ack)
}

// ErrShortSegment reports an undecodable segment buffer.
var ErrShortSegment = errors.New("transport: segment too short")

// UnmarshalSegment decodes a segment header.
func UnmarshalSegment(b []byte) (Segment, error) {
	if len(b) < HeaderLen {
		return Segment{}, ErrShortSegment
	}
	return Segment{
		Proto:  Proto(b[0]),
		Stream: binary.BigEndian.Uint16(b[1:]),
		Kind:   Kind(b[3]),
		Seq:    binary.BigEndian.Uint32(b[4:]),
		Ack:    binary.BigEndian.Uint32(b[8:]),
	}, nil
}

// Endpoint is what a transport agent needs from its host station: a way to
// hand segments to the MAC and access to simulated time.
type Endpoint interface {
	// SendSegment submits a segment toward dst as a packet of the given
	// on-air size.
	SendSegment(dst frame.NodeID, seg Segment, size int)
	// Clock returns the simulator for timer scheduling.
	Clock() *sim.Simulator
}

// Package frame defines the MACAW over-the-air frame formats: the RTS, CTS,
// DS, DATA, ACK and RRTS packet types, the backoff header fields that the
// copying algorithm of Appendix B piggybacks on every packet, and a compact
// binary wire encoding.
//
// Sizes follow the paper: control packets are exactly 30 bytes on the air
// and data packets are 512 bytes (configurable per frame via DataBytes).
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"macaw/internal/sim"
)

// NodeID identifies a station (a pad or a base station). IDs are assigned
// by the topology builder and are stable for the lifetime of a run.
type NodeID uint16

// Broadcast is the destination of multicast transmissions (§3.3.4).
const Broadcast NodeID = 0xFFFF

// String formats the id as Nxx; the topology layer supplies nicer names.
func (id NodeID) String() string {
	if id == Broadcast {
		return "MCAST"
	}
	return fmt.Sprintf("N%d", id)
}

// Type enumerates the MACAW frame types.
type Type uint8

const (
	// RTS is the Request-to-Send control packet.
	RTS Type = iota
	// CTS is the Clear-to-Send control packet.
	CTS
	// DS is the Data-Sending control packet announcing that the RTS-CTS
	// exchange succeeded and a data transmission follows (§3.3.2).
	DS
	// DATA carries a transport payload.
	DATA
	// ACK is the link-level acknowledgement (§3.3.1).
	ACK
	// RRTS is the Request-for-Request-to-Send packet with which a
	// receiver contends on behalf of a blocked sender (§3.3.3).
	RRTS
	// NACK is the negative acknowledgement from the §4 design
	// alternatives: sent by a receiver that issued a CTS but did not
	// receive the data.
	NACK
	// TOKEN passes channel ownership in the token-based access scheme
	// the paper defers to future work ("Various token-based schemes ...
	// are possibilities we hope to explore").
	TOKEN
	// SIG is the Tournament MAC's elimination-round signaling burst: a
	// contender whose draw has a 1-bit in the current round radiates one
	// SIG for the slot; silent contenders that hear it (or its carrier)
	// lose the round (Galtier's constant-window tournament).
	SIG

	numTypes
)

var typeNames = [...]string{"RTS", "CTS", "DS", "DATA", "ACK", "RRTS", "NACK", "TOKEN", "SIG"}

// String returns the conventional name of the frame type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is a defined frame type.
func (t Type) Valid() bool { return t < numTypes }

// Control reports whether the type is a fixed-size 30-byte control packet.
func (t Type) Control() bool { return t.Valid() && t != DATA }

// ControlBytes is the on-air size of every control packet. "The control
// packets (RTS, CTS) are 30 bytes long. The transmission time of these
// packets defines the slot time for retransmissions."
const ControlBytes = 30

// DefaultDataBytes is the paper's data packet size: "All data packets are
// 512 bytes".
const DefaultDataBytes = 512

// IDontKnow marks an unknown remote backoff estimate in a packet header
// (Appendix B: "remote_backoff = Q's backoff (or I_DONT_KNOW)").
const IDontKnow int16 = -1

// Frame is one over-the-air packet.
type Frame struct {
	Type Type
	// Src and Dst identify the transmitting station and the intended
	// receiver. Dst is Broadcast for multicast data.
	Src, Dst NodeID
	// DataBytes is the length of the proposed data transmission. RTS and
	// CTS carry it so overhearers can size their defer periods; for DATA
	// it is the frame's own on-air size.
	DataBytes uint16
	// LocalBackoff is the sender's backoff value for this exchange
	// (Appendix B "local_backoff").
	LocalBackoff int16
	// RemoteBackoff is the sender's estimate of the receiver's backoff,
	// or IDontKnow (Appendix B "remote_backoff").
	RemoteBackoff int16
	// ESN is the exchange sequence number used by the per-destination
	// backoff bookkeeping (Appendix B "exchange_seq_number").
	ESN uint32
	// Seq identifies the transport packet a DATA/ACK frame refers to, so
	// a receiver can return an ACK instead of a CTS when it sees an RTS
	// for a packet it already acknowledged (Appendix B control rule 7).
	Seq uint32
	// Multicast marks an RTS that announces an RTS-DATA multicast
	// exchange rather than a unicast RTS-CTS exchange (§3.3.4).
	Multicast bool
	// AckRequested marks a DATA frame whose sender wants the immediate
	// link-level ACK; with the §4 piggyback scheme a sender with more
	// packets queued clears it and collects the acknowledgement from the
	// next CTS instead.
	AckRequested bool
	// HasAck marks a CTS carrying a piggybacked acknowledgement.
	HasAck bool
	// Ack is the sequence number acknowledged by a piggybacking CTS
	// ("a field which indicated the sequence number of the most
	// recently arrived packet", §4).
	Ack uint32
	// Payload is the transport payload of a DATA frame, length-checked by
	// the wire codec. The medium copies it at Transmit into a buffer of
	// its own, which a received frame's Payload refers to for the
	// duration of the notification only.
	Payload []byte
}

// Size returns the frame's on-air size in bytes.
func (f *Frame) Size() int {
	if f.Type == DATA {
		return int(f.DataBytes)
	}
	return ControlBytes
}

// Airtime returns the time needed to transmit the frame at bitrate bits/s.
func (f *Frame) Airtime(bitrate int) sim.Duration {
	return Airtime(f.Size(), bitrate)
}

// Airtime returns the transmission time of n bytes at bitrate bits/s.
func Airtime(n, bitrate int) sim.Duration {
	return sim.Duration(int64(n) * 8 * int64(sim.Second) / int64(bitrate))
}

// String renders a concise human-readable description for traces.
func (f *Frame) String() string {
	s := fmt.Sprintf("%s %v->%v", f.Type, f.Src, f.Dst)
	if f.Type == RTS || f.Type == CTS || f.Type == DS {
		s += fmt.Sprintf(" len=%d", f.DataBytes)
	}
	if f.Type == DATA || f.Type == ACK {
		s += fmt.Sprintf(" seq=%d", f.Seq)
	}
	return s
}

// Wire encoding
//
// The simulator passes *Frame values around directly, but the codec below
// defines an unambiguous wire format so traces can be persisted and so the
// frame layout is pinned by tests. Layout (big endian):
//
//	 0: magic (0xMA = 0x4D41, 2 bytes)
//	 2: version (1 byte)
//	 3: type (1 byte)
//	 4: flags (1 byte; bit0 = multicast)
//	 5: src (2 bytes)
//	 7: dst (2 bytes)
//	 9: dataBytes (2 bytes)
//	11: localBackoff (2 bytes, signed)
//	13: remoteBackoff (2 bytes, signed)
//	15: esn (4 bytes)
//	19: seq (4 bytes)
//	23: ack (4 bytes)
//	27: payloadLen (2 bytes) + payload
//	 N: crc32 (IEEE, 4 bytes) over everything before it
//
// Flag bits: 0 multicast, 1 ackRequested, 2 hasAck.

const (
	wireMagic   uint16 = 0x4D41 // "MA"
	wireVersion byte   = 1
	headerLen          = 29
	trailerLen         = 4
	// MaxPayload bounds the encodable payload length.
	MaxPayload = 0xFFFF
)

// Codec errors.
var (
	ErrShortBuffer = errors.New("frame: buffer too short")
	ErrBadMagic    = errors.New("frame: bad magic")
	ErrBadVersion  = errors.New("frame: unsupported version")
	ErrBadType     = errors.New("frame: unknown frame type")
	ErrBadChecksum = errors.New("frame: checksum mismatch")
	ErrTooLong     = errors.New("frame: payload too long")
)

// Marshal encodes the frame into a fresh byte slice.
func (f *Frame) Marshal() ([]byte, error) {
	if !f.Type.Valid() {
		return nil, ErrBadType
	}
	if len(f.Payload) > MaxPayload {
		return nil, ErrTooLong
	}
	b := make([]byte, headerLen+len(f.Payload)+trailerLen)
	binary.BigEndian.PutUint16(b[0:], wireMagic)
	b[2] = wireVersion
	b[3] = byte(f.Type)
	if f.Multicast {
		b[4] |= 1
	}
	if f.AckRequested {
		b[4] |= 2
	}
	if f.HasAck {
		b[4] |= 4
	}
	binary.BigEndian.PutUint16(b[5:], uint16(f.Src))
	binary.BigEndian.PutUint16(b[7:], uint16(f.Dst))
	binary.BigEndian.PutUint16(b[9:], f.DataBytes)
	binary.BigEndian.PutUint16(b[11:], uint16(f.LocalBackoff))
	binary.BigEndian.PutUint16(b[13:], uint16(f.RemoteBackoff))
	binary.BigEndian.PutUint32(b[15:], f.ESN)
	binary.BigEndian.PutUint32(b[19:], f.Seq)
	binary.BigEndian.PutUint32(b[23:], f.Ack)
	binary.BigEndian.PutUint16(b[27:], uint16(len(f.Payload)))
	copy(b[headerLen:], f.Payload)
	sum := crc32.ChecksumIEEE(b[:len(b)-trailerLen])
	binary.BigEndian.PutUint32(b[len(b)-trailerLen:], sum)
	return b, nil
}

// Unmarshal decodes a frame previously produced by Marshal.
func Unmarshal(b []byte) (*Frame, error) {
	if len(b) < headerLen+trailerLen {
		return nil, ErrShortBuffer
	}
	if binary.BigEndian.Uint16(b[0:]) != wireMagic {
		return nil, ErrBadMagic
	}
	if b[2] != wireVersion {
		return nil, ErrBadVersion
	}
	t := Type(b[3])
	if !t.Valid() {
		return nil, ErrBadType
	}
	plen := int(binary.BigEndian.Uint16(b[27:]))
	if len(b) != headerLen+plen+trailerLen {
		return nil, ErrShortBuffer
	}
	want := binary.BigEndian.Uint32(b[len(b)-trailerLen:])
	if crc32.ChecksumIEEE(b[:len(b)-trailerLen]) != want {
		return nil, ErrBadChecksum
	}
	f := &Frame{
		Type:          t,
		Multicast:     b[4]&1 != 0,
		AckRequested:  b[4]&2 != 0,
		HasAck:        b[4]&4 != 0,
		Src:           NodeID(binary.BigEndian.Uint16(b[5:])),
		Dst:           NodeID(binary.BigEndian.Uint16(b[7:])),
		DataBytes:     binary.BigEndian.Uint16(b[9:]),
		LocalBackoff:  int16(binary.BigEndian.Uint16(b[11:])),
		RemoteBackoff: int16(binary.BigEndian.Uint16(b[13:])),
		ESN:           binary.BigEndian.Uint32(b[15:]),
		Seq:           binary.BigEndian.Uint32(b[19:]),
		Ack:           binary.BigEndian.Uint32(b[23:]),
	}
	if plen > 0 {
		f.Payload = append([]byte(nil), b[headerLen:headerLen+plen]...)
	}
	return f, nil
}

// Package mac defines what the media access protocol engines (csma, maca,
// macaw, token, dcf, tournament) share: the engine SPI, the engine chassis
// they embed (Base), the transport-facing packet type, the host callbacks,
// per-stream queueing, and the common timing configuration (slot time,
// control packet time, timeouts).
package mac

import (
	"math/rand"

	"macaw/internal/frame"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

// Packet is one transport-layer packet handed to a MAC for transmission.
// The fields are ordered widest first so the record packs into 32 bytes:
// a core slab block of 32 packets fills the 1024-byte size class.
// A packet is dead once its Sent or Dropped callback returns (see
// Callbacks): the host may then zero and reuse it for a later offer.
type Packet struct {
	// Payload is the transport payload carried to the receiver.
	Payload []byte

	seq uint32 // link-layer sequence number, assigned by the MAC

	// Size is the on-air size in bytes (the paper's data packets are 512
	// bytes regardless of payload), of the type of frame.Frame.DataBytes.
	Size uint16

	// Dst is the destination station (frame.Broadcast for multicast).
	Dst frame.NodeID
}

// Seq returns the link-layer sequence number the MAC assigned.
func (p *Packet) Seq() uint32 { return p.seq }

// SetSeq is used by MAC implementations to assign the sequence number.
func (p *Packet) SetSeq(s uint32) { p.seq = s }

// DropReason explains why a packet was abandoned.
type DropReason string

// Drop reasons.
const (
	DropRetries  DropReason = "retry limit exceeded"
	DropDisabled DropReason = "station disabled"
)

// Callbacks are the MAC-to-host upcalls. Any of them may be nil.
//
// Sent and Dropped are a packet's terminal callbacks: each enqueued packet
// gets at most one of them, once. When it returns the packet is dead to
// the engine, which keeps no reference to it and reads none of its fields
// afterwards; the host may recycle the record at once, payload bytes
// included: the radio copies a frame's payload at Transmit, so no frame on
// the air aliases the packet. Deliver's payload is the radio's copy, valid
// for the call only: a host that keeps received bytes copies them.
type Callbacks struct {
	// Deliver hands a received data packet's payload to the host, valid
	// for the call only.
	Deliver func(src frame.NodeID, payload []byte)
	// Sent reports that a local packet completed (for MACA: data
	// transmitted; for MACAW: link-level ACK received).
	Sent func(p *Packet)
	// Dropped reports that a local packet was abandoned.
	Dropped func(p *Packet, reason DropReason)
}

// NotifyDeliver invokes Deliver if set.
func (c Callbacks) NotifyDeliver(src frame.NodeID, payload []byte) {
	if c.Deliver != nil {
		c.Deliver(src, payload)
	}
}

// NotifySent invokes Sent if set.
func (c Callbacks) NotifySent(p *Packet) {
	if c.Sent != nil {
		c.Sent(p)
	}
}

// NotifyDropped invokes Dropped if set.
func (c Callbacks) NotifyDropped(p *Packet, r DropReason) {
	if c.Dropped != nil {
		c.Dropped(p, r)
	}
}

// MAC is a media access protocol instance bound to one radio. It consumes
// physical-layer indications (phy.Handler) and transmits queued packets.
type MAC interface {
	phy.Handler
	// Enqueue submits a packet for transmission.
	Enqueue(p *Packet)
	// QueueLen reports the number of packets waiting (all streams).
	QueueLen() int
	// Stats returns MAC-level counters.
	Stats() Stats
}

// Observer receives MAC-internal events for passive protocol auditing (the
// conformance oracle). Implementations must be strictly passive: they may
// not transmit, enqueue packets, schedule simulator events, or consume
// randomness — attaching an observer must leave every simulation result
// bit-identical. Every protocol engine (csma, maca, macaw, token, dcf,
// tournament) reaches the hooks through its Base, which calls each entry of
// Env.Obs in order; the metrics collector and the trace bridge record
// retries and drops, the oracle ignores them. A frame pointer passed to a
// hook is valid only for that call (the engine's reused send buffer, or the
// medium's copy of a received frame): an observer must not keep or mutate
// it.
type Observer interface {
	// ObserveTx is invoked immediately before the MAC radiates f.
	ObserveTx(f *frame.Frame)
	// ObserveRx is invoked for every clean reception the MAC processes,
	// including overheard frames and broadcasts.
	ObserveRx(f *frame.Frame)
	// ObserveState reports an FSM transition (Appendix A/B state names).
	ObserveState(from, to string)
	// ObserveTimer reports the state timer being armed to fire at 'at';
	// a negative value reports cancellation.
	ObserveTimer(at sim.Time)
	// ObserveQueue reports a queue operation ("push", "pop", "drop") on
	// the queue toward dst, with the queue length after the operation.
	ObserveQueue(op string, dst frame.NodeID, n int)
	// ObserveDeliver reports a DATA frame whose payload was handed to
	// transport.
	ObserveDeliver(f *frame.Frame)
	// ObserveRetry reports one failed attempt toward dst being retried
	// (every Stats.Retries increment).
	ObserveRetry(dst frame.NodeID)
	// ObserveDrop reports a packet toward dst being abandoned (every
	// Stats.Drops increment), with the reason.
	ObserveDrop(dst frame.NodeID, reason DropReason)
}

// Stats counts MAC-level events.
type Stats struct {
	// DataSent counts completed local data transmissions.
	DataSent int
	// DataReceived counts data packets delivered up the stack.
	DataReceived int
	// RTSSent counts RTS transmissions (including retries).
	RTSSent int
	// Retries counts RTS attempts beyond the first per packet.
	Retries int
	// Drops counts packets abandoned at the retry limit.
	Drops int
	// CTSSent, DSSent, ACKSent, RRTSSent count control transmissions.
	CTSSent, DSSent, ACKSent, RRTSSent int
}

// Config carries the timing constants shared by all protocols. The zero
// value is not useful; start from DefaultConfig.
type Config struct {
	// BitrateBPS is the channel rate (256 kbps in the paper).
	BitrateBPS int
	// CtrlBytes is the control packet size (30 bytes in the paper); its
	// airtime defines the contention slot.
	CtrlBytes int
	// Turnaround is the receive-to-transmit switch time ("the
	// simulations use a null turnaround").
	Turnaround sim.Duration
	// Margin is the scheduling epsilon added to timeouts so that events
	// arriving exactly on time beat the timer.
	Margin sim.Duration
	// MaxRetries bounds RTS attempts per packet before the packet is
	// discarded ("we allow a certain number of retries on each packet
	// before discarding the packet").
	MaxRetries int
	// CTSTimeoutSlots is how many slot times a sender waits for the CTS
	// (or ACK) beyond the control packet's own airtime before declaring
	// the attempt failed. The paper leaves the value unspecified; a
	// conservative multi-slot timeout reproduces the collision costs its
	// tables imply (see EXPERIMENTS.md).
	CTSTimeoutSlots int
}

// CTSWait returns the post-transmission wait for an answering control
// packet.
func (c Config) CTSWait() sim.Duration {
	n := c.CTSTimeoutSlots
	if n <= 0 {
		n = 1
	}
	return c.Turnaround + sim.Duration(n)*c.Slot() + c.Margin
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		BitrateBPS:      256000,
		CtrlBytes:       frame.ControlBytes,
		Turnaround:      0,
		Margin:          100 * sim.Microsecond,
		MaxRetries:      8,
		CTSTimeoutSlots: 1,
	}
}

// Slot returns the contention slot: the transmission time of a control
// packet.
func (c Config) Slot() sim.Duration { return frame.Airtime(c.CtrlBytes, c.BitrateBPS) }

// CtrlTime returns the airtime of a control packet.
func (c Config) CtrlTime() sim.Duration { return c.Slot() }

// DataTime returns the airtime of an n-byte data packet.
func (c Config) DataTime(n int) sim.Duration { return frame.Airtime(n, c.BitrateBPS) }

// Radio is the physical-layer surface a MAC implementation drives.
// *phy.Radio implements it inside the simulator; internal/netem provides a
// socket-backed implementation for live emulation.
type Radio interface {
	// ID returns the station identifier.
	ID() frame.NodeID
	// Transmit radiates f and returns its airtime; the MAC schedules its
	// own end-of-transmission continuation. The radio copies *f and its
	// payload bytes (or encodes them) before returning, so the MAC may
	// reuse its frame, and the host its payload, at once.
	Transmit(f *frame.Frame) sim.Duration
	// Transmitting reports whether a transmission is in flight.
	Transmitting() bool
	// CarrierBusy reports the carrier-sense indication.
	CarrierBusy() bool
	// Enabled reports whether the radio is powered.
	Enabled() bool
	// SetHandler installs the upper-layer indication handler.
	SetHandler(h phy.Handler)
}

// Env bundles what a MAC implementation needs from its host.
type Env struct {
	Sim   *sim.Simulator
	Radio Radio
	Rand  *rand.Rand
	Cfg   Config
	// Obs are this MAC lifetime's passive observers (see Observer), in
	// attachment order; Base calls each of them on every hook. Empty
	// means unobserved.
	Obs []Observer
	// Blocks is the store the engine's queues take their blocks from,
	// shared by every engine of the network (see NewQueue). Nil allocates
	// each block on its own.
	Blocks *Blocks
	// Spare is the engine the previous occupant of the host's station
	// record ran, finished for good with its network, or nil. A backend's
	// constructor takes it (see TakeSpare) and, when it is the backend's
	// own type, builds the new engine in its record, keeping the capacity
	// of its tables and scratch slices.
	Spare Engine
	Callbacks
}

// TakeSpare clears env.Spare and returns it as an E, if it is one. An
// engine record it returns is dead: the caller rewrites every field.
func TakeSpare[E Engine](env *Env) (E, bool) {
	e, ok := env.Spare.(E)
	env.Spare = nil
	return e, ok
}

// ID returns the station identifier of the bound radio.
func (e *Env) ID() frame.NodeID { return e.Radio.ID() }

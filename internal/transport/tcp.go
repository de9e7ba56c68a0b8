package transport

import (
	"macaw/internal/frame"
	"macaw/internal/sim"
)

// TCPConfig parameterizes the simplified TCP.
type TCPConfig struct {
	// Window is the fixed sending window in packets.
	Window int
	// MinRTO is the minimum retransmission timeout; §3.3.1: "many
	// current TCP implementations have a minimum timeout period of
	// 0.5 sec".
	MinRTO sim.Duration
	// MaxRTO caps the exponential timer backoff.
	MaxRTO sim.Duration
	// DupAckThreshold triggers fast retransmit (0 disables).
	DupAckThreshold int
}

// DefaultTCPConfig returns the configuration used in the reproduction.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		Window:          8,
		MinRTO:          500 * sim.Millisecond,
		MaxRTO:          64 * sim.Second,
		DupAckThreshold: 3,
	}
}

// TCPSender is a simplified TCP source: a fixed sliding window over an
// unbounded application backlog, cumulative acknowledgements, an RTT
// estimator, exponential timer backoff, and optional fast retransmit. It
// deliberately omits congestion control — the paper's TCP results hinge on
// the coarse retransmission timer, not on window dynamics.
type TCPSender struct {
	ep     Endpoint
	dst    frame.NodeID
	stream uint16
	cfg    TCPConfig

	backlog uint32 // packets offered by the application
	nextSeq uint32 // next never-sent sequence number (1-based)
	sndUna  uint32 // oldest unacknowledged sequence number

	srtt, rttvar sim.Duration
	haveRTT      bool
	rto          sim.Duration
	rtoBackoff   int
	timer        sim.Event

	// RTT sampling (one sample in flight, Karn's rule: no samples from
	// retransmitted segments).
	sampleSeq   uint32
	sampleAt    sim.Time
	sampleValid bool

	dupAcks int

	stats TCPStats
}

// TCPStats counts sender events.
type TCPStats struct {
	Sent            int // data segments transmitted, including retransmits
	Retransmits     int
	Timeouts        int
	FastRetransmits int
	AcksReceived    int
}

// NewTCPSender returns a sender for one (destination, stream) pair.
func NewTCPSender(ep Endpoint, dst frame.NodeID, stream uint16, cfg TCPConfig) *TCPSender {
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	return &TCPSender{ep: ep, dst: dst, stream: stream, cfg: cfg, nextSeq: 1, sndUna: 1, rto: cfg.MinRTO}
}

// Stats returns a snapshot of the sender counters.
func (t *TCPSender) Stats() TCPStats { return t.stats }

// Acked reports the number of packets cumulatively acknowledged.
func (t *TCPSender) Acked() int { return int(t.sndUna - 1) }

// Offer submits one application packet to the send buffer and returns its
// sequence number.
func (t *TCPSender) Offer() uint32 {
	t.backlog++
	t.pump()
	return t.backlog
}

// inFlight reports the number of unacknowledged transmitted segments.
func (t *TCPSender) inFlight() int { return int(t.nextSeq - t.sndUna) }

// pump transmits new segments while the window allows.
func (t *TCPSender) pump() {
	for t.inFlight() < t.cfg.Window && t.nextSeq <= t.backlog {
		t.sendSeq(t.nextSeq, false)
		t.nextSeq++
	}
	t.armTimer()
}

func (t *TCPSender) sendSeq(seq uint32, retransmit bool) {
	t.stats.Sent++
	if retransmit {
		t.stats.Retransmits++
	} else if !t.sampleValid {
		t.sampleSeq = seq
		t.sampleAt = t.ep.Clock().Now()
		t.sampleValid = true
	}
	t.ep.SendSegment(t.dst, Segment{Proto: ProtoTCP, Stream: t.stream, Kind: KindData, Seq: seq}, DataBytes)
}

func (t *TCPSender) armTimer() {
	if t.inFlight() == 0 {
		t.timer.Cancel()
		t.timer = sim.Event{}
		return
	}
	if !t.timer.IsZero() && !t.timer.Cancelled() {
		return
	}
	clk := t.ep.Clock()
	t.timer = clk.AtPriorityCall(clk.Now()+t.currentRTO(), 0, sim.Call[*TCPSender], t, (*TCPSender).onTimeout)
}

func (t *TCPSender) currentRTO() sim.Duration {
	rto := t.rto
	for i := 0; i < t.rtoBackoff; i++ {
		rto *= 2
		if rto >= t.cfg.MaxRTO {
			return t.cfg.MaxRTO
		}
	}
	return rto
}

func (t *TCPSender) onTimeout() {
	t.timer = sim.Event{}
	if t.inFlight() == 0 {
		return
	}
	t.stats.Timeouts++
	t.rtoBackoff++
	t.sampleValid = false // Karn: never sample a retransmitted segment
	t.sendSeq(t.sndUna, true)
	t.armTimer()
}

// Handle processes an incoming segment addressed to this stream.
func (t *TCPSender) Handle(src frame.NodeID, seg Segment) {
	if seg.Proto != ProtoTCP || seg.Stream != t.stream || seg.Kind != KindAck || src != t.dst {
		return
	}
	t.stats.AcksReceived++
	if seg.Ack <= t.sndUna {
		// Duplicate ack.
		t.dupAcks++
		if t.cfg.DupAckThreshold > 0 && t.dupAcks == t.cfg.DupAckThreshold && t.inFlight() > 0 {
			t.stats.FastRetransmits++
			t.sampleValid = false
			t.sendSeq(t.sndUna, true)
		}
		return
	}
	// New data acknowledged.
	if t.sampleValid && seg.Ack > t.sampleSeq {
		t.addRTTSample(t.ep.Clock().Now() - t.sampleAt)
		t.sampleValid = false
	}
	t.sndUna = seg.Ack
	t.dupAcks = 0
	t.rtoBackoff = 0
	t.timer.Cancel()
	t.timer = sim.Event{}
	t.pump()
}

// addRTTSample updates srtt/rttvar per RFC 6298 and recomputes the RTO with
// the 0.5 s floor.
func (t *TCPSender) addRTTSample(rtt sim.Duration) {
	if !t.haveRTT {
		t.srtt = rtt
		t.rttvar = rtt / 2
		t.haveRTT = true
	} else {
		d := t.srtt - rtt
		if d < 0 {
			d = -d
		}
		t.rttvar = (3*t.rttvar + d) / 4
		t.srtt = (7*t.srtt + rtt) / 8
	}
	rto := t.srtt + 4*t.rttvar
	if rto < t.cfg.MinRTO {
		rto = t.cfg.MinRTO
	}
	if rto > t.cfg.MaxRTO {
		rto = t.cfg.MaxRTO
	}
	t.rto = rto
}

// RTO returns the current (unbackedoff) retransmission timeout.
func (t *TCPSender) RTO() sim.Duration { return t.rto }

// TCPReceiver delivers in-order data and acknowledges every arriving data
// segment with a cumulative ack (ack-every-packet, the behaviour that loads
// the reverse channel in Table 4).
type TCPReceiver struct {
	ep     Endpoint
	stream uint16

	expected  uint32 // next in-order sequence (1-based)
	buffered  map[uint32]bool
	delivered int
	dups      int
	// OnDeliver observes each in-order delivery.
	OnDeliver func(seq uint32)
}

// NewTCPReceiver returns a receiver for one stream.
func NewTCPReceiver(ep Endpoint, stream uint16) *TCPReceiver {
	return &TCPReceiver{ep: ep, stream: stream, expected: 1, buffered: make(map[uint32]bool)}
}

// Delivered reports the count of in-order packets handed to the
// application.
func (r *TCPReceiver) Delivered() int { return r.delivered }

// Dups reports the count of duplicate data segments received.
func (r *TCPReceiver) Dups() int { return r.dups }

// Handle processes an incoming data segment and emits the cumulative ack.
func (r *TCPReceiver) Handle(src frame.NodeID, seg Segment) {
	if seg.Proto != ProtoTCP || seg.Stream != r.stream || seg.Kind != KindData {
		return
	}
	switch {
	case seg.Seq == r.expected:
		r.deliver(seg.Seq)
		r.expected++
		for r.buffered[r.expected] {
			delete(r.buffered, r.expected)
			r.deliver(r.expected)
			r.expected++
		}
	case seg.Seq > r.expected:
		if !r.buffered[seg.Seq] {
			r.buffered[seg.Seq] = true
		} else {
			r.dups++
		}
	default:
		r.dups++
	}
	r.ep.SendSegment(src, Segment{Proto: ProtoTCP, Stream: r.stream, Kind: KindAck, Ack: r.expected}, AckBytes)
}

func (r *TCPReceiver) deliver(seq uint32) {
	r.delivered++
	if r.OnDeliver != nil {
		r.OnDeliver(seq)
	}
}

package backoff

import "macaw/internal/frame"

// Peer is the per-remote-station state of Appendix B. The pseudocode's
// exchange_seq_number and retry_count each serve two distinct roles —
// numbering our own exchanges toward the peer and tracking the peer's
// exchanges toward us — which this implementation keeps separate. The
// counters are 32 bits wide: a packet header carries the backoff values
// as int16 and the retry counts stay below the retry limit, so nothing is
// lost, and the record is 24 bytes.
type Peer struct {
	// Local is the local end's counter for this stream ("the backoff
	// value at this station as estimated by the remote station").
	Local int32
	// Remote is the estimated backoff value for the remote station, or
	// IDontKnow.
	Remote int32
	// SendESN numbers our own packet exchanges toward the peer.
	SendESN uint32
	// SendRetry counts our transmission attempts for the current packet.
	SendRetry int32
	// SeenESN is the highest exchange number observed from the peer.
	SeenESN uint32
	// SeenRetry counts observed retransmissions of the peer's current
	// exchange.
	SeenRetry int32
}

// PerDest is the per-destination backoff policy of §3.4 and Appendix B.
// Each station keeps its own counter (My) plus, for every remote station, a
// local/remote pair; the contention window toward a destination combines
// the congestion estimates of both ends by summing them (footnote 9).
//
// The Peer records live by value in a frame.Peers, a slice sorted by
// station id and searched by bisection.
type PerDest struct {
	strat Strategy
	// Alpha is the additive retry penalty from the Appendix B pseudocode.
	Alpha int
	// My is "the backoff value at this station".
	My    int
	peers frame.Peers[Peer]
}

// NewPerDest returns a per-destination policy using strat.
func NewPerDest(strat Strategy) *PerDest {
	return &PerDest{strat: strat, Alpha: DefaultAlpha, My: strat.Min()}
}

// Reset makes p the policy NewPerDest(strat) returns, keeping the capacity
// of its peer table.
func (p *PerDest) Reset(strat Strategy) {
	p.peers.Reset()
	*p = PerDest{strat: strat, Alpha: DefaultAlpha, My: strat.Min(), peers: p.peers}
}

// Peer returns the bookkeeping entry for id, creating it on first use. The
// pointer is valid until the next call that creates an entry.
func (p *PerDest) Peer(id frame.NodeID) *Peer {
	if pe := p.peers.Get(id); pe != nil {
		return pe
	}
	pe := p.peers.Add(id)
	*pe = Peer{Local: int32(p.My), Remote: IDontKnow, SendESN: 1, SendRetry: 1}
	return pe
}

// Lookup returns the bookkeeping entry for id without creating one, valid
// as Peer's is — introspection for the fault watchdog's stale-entry checks.
func (p *PerDest) Lookup(id frame.NodeID) (*Peer, bool) {
	pe := p.peers.Get(id)
	return pe, pe != nil
}

// PeerIDs lists the stations with bookkeeping entries in ascending order —
// introspection for the fault watchdog's stale-entry checks.
func (p *PerDest) PeerIDs() []frame.NodeID {
	ids := make([]frame.NodeID, p.peers.Len())
	for i := range ids {
		ids[i], _ = p.peers.At(i)
	}
	return ids
}

func (p *PerDest) clamp(v int) int { return clamp(v, p.strat.Min(), p.strat.Max()) }

// headerVal sanitizes a backoff counter copied from a packet header at
// adoption time (§3.1): out-of-range values — a corrupted-but-accepted or
// legacy header — are clamped into [BOmin, BOmax], and any negative value
// (IDontKnow or garbage) is reported as unknown rather than clamped into a
// confident estimate. Valid headers pass through unchanged.
func (p *PerDest) headerVal(v int16) (int, bool) {
	if v < 0 {
		return 0, false
	}
	return p.clamp(int(v)), true
}

// bump adds d to a possibly-unknown estimate.
func (p *PerDest) bump(v, d int) int {
	if v == IDontKnow {
		v = p.strat.Min()
	}
	return p.clamp(v + d)
}

// Backoff implements Policy: the sum of the congestion estimates at both
// ends of the stream.
func (p *PerDest) Backoff(dst frame.NodeID) int {
	pe := p.Peer(dst)
	bo := int(pe.Local)
	if pe.Remote != IDontKnow {
		bo += int(pe.Remote)
	}
	return clamp(bo, p.strat.Min(), 2*p.strat.Max())
}

// StartExchange implements Policy: at the beginning of a new packet the
// stream's local counter re-synchronizes with my_backoff and the exchange
// sequence number advances.
func (p *PerDest) StartExchange(dst frame.NodeID) {
	pe := p.Peer(dst)
	pe.Local = int32(p.My)
	pe.SendESN++
	pe.SendRetry = 1
}

// StampSend implements Policy.
func (p *PerDest) StampSend(f *frame.Frame) {
	pe := p.Peer(f.Dst)
	f.LocalBackoff = int16(pe.Local)
	f.RemoteBackoff = int16(pe.Remote)
	f.ESN = pe.SendESN
}

// OnOverhear implements Policy. Appendix B: "When a pad P hears a packet,
// other than an RTS, from Q to R, P updates its estimate about Q and R's
// contention levels by copying the local_backoff and remote_backoff values
// carried in the packet. In addition, P also copies Q's backoff value as
// its own backoff, assuming that Q is a nearby station." The my_backoff
// copy mixes neighbourhood congestion both ways: it leaks high values
// across cell borders (the §3.4 leakage caveat) but is also the only
// channel through which an overheated sender/receiver pair cools back down
// to its neighbourhood's level.
func (p *PerDest) OnOverhear(f *frame.Frame) {
	if f.Type == frame.RTS {
		return
	}
	if local, ok := p.headerVal(f.LocalBackoff); ok {
		p.Peer(f.Src).Remote = int32(local)
		p.My = local
	}
	if remote, ok := p.headerVal(f.RemoteBackoff); ok {
		p.Peer(f.Dst).Remote = int32(remote)
	}
}

// OnReceive implements Policy, the Appendix B receive rule.
//
// The values carried by an RTS are never adopted — extending the copying
// rules' own rationale that RTS packets "may not carry the correct backoff
// values" (the sender has not completed a handshake that would validate
// them) — but a repeated RTS for the same exchange is direct evidence of a
// collision at the sender's end, so the peer's estimate is penalized by the
// observed retry count times ALPHA.
//
// Post-handshake frames (CTS, DS, DATA, ACK) carry authoritative values:
// the peer's estimate is refreshed, and the peer's view of *our* congestion
// is adopted as our local counter and my_backoff.
func (p *PerDest) OnReceive(f *frame.Frame) {
	pe := p.Peer(f.Src)
	local, okLocal := p.headerVal(f.LocalBackoff)
	if f.Type == frame.RTS {
		switch {
		case f.ESN > pe.SeenESN:
			pe.SeenESN = f.ESN
			pe.SeenRetry = 1
		case f.ESN < pe.SeenESN:
			// ESN regression. Exchange numbers only grow within one
			// lifetime of the peer, and the medium delivers each
			// sender's frames in transmit order, so a smaller number
			// means the peer rebooted and is numbering from scratch.
			// Resynchronize the entry as if this were a first RTS;
			// without the reset every frame from the restarted peer
			// would be discarded as stale against the dead
			// instance's high-water mark.
			pe.SeenESN = f.ESN
			pe.SeenRetry = 1
		case f.ESN == pe.SeenESN:
			// "Q's backoff = local_backoff + retry_count * ALPHA" —
			// a replacement anchored to the packet's claim, not a
			// cumulative bump: the estimate stays bounded by the
			// retry limit instead of ratcheting to the maximum.
			if okLocal {
				pe.Remote = int32(p.clamp(local + int(pe.SeenRetry)*p.Alpha))
				if remote, ok := p.headerVal(f.RemoteBackoff); ok {
					// "P's local_backoff = (local_backoff +
					// remote_backoff) - Q's backoff": the sum of
					// the two ends is preserved regardless of
					// which end the collision charged.
					pe.Local = int32(p.clamp(local + remote - int(pe.Remote)))
				}
			}
			pe.SeenRetry++
		}
		return
	}
	// An ESN below the high-water mark is a regression, not a stale frame
	// (per-sender delivery is ordered): the peer rebooted, and its fresh
	// post-handshake values are authoritative — adopt them.
	pe.SeenESN = f.ESN
	pe.SeenRetry = 1
	if okLocal {
		pe.Remote = int32(local)
	}
	if remote, ok := p.headerVal(f.RemoteBackoff); ok {
		pe.Local = int32(remote)
		p.My = remote
	}
}

// OnSuccess implements Policy: a completed exchange applies Fdec to both
// ends' estimates and resynchronizes my_backoff.
func (p *PerDest) OnSuccess(dst frame.NodeID) {
	pe := p.Peer(dst)
	pe.Local = int32(p.strat.Dec(int(pe.Local)))
	if pe.Remote != IDontKnow {
		pe.Remote = int32(p.strat.Dec(int(pe.Remote)))
	}
	p.My = int(pe.Local)
	pe.SendRetry = 1
}

// OnFailure implements Policy: an RTS that evoked no response indicates
// congestion at the receiver's end. Appendix B's timeout rule is additive —
// "Q's backoff += retry_count * ALPHA" — so repeated retries of one packet
// escalate (1+2+3+...) while an isolated collision costs only ALPHA. (A
// multiplicative Finc here would let a busy neighbour starve a lightly
// loaded sender permanently: each rare success undoes only Fdec's worth.)
func (p *PerDest) OnFailure(dst frame.NodeID) {
	pe := p.Peer(dst)
	pe.Remote = int32(p.bump(int(pe.Remote), int(pe.SendRetry)*p.Alpha))
	pe.SendRetry++
}

// OnGiveUp implements Policy: "If reached max_retry_count, P's
// local_backoff used with Q = MAX_BACKOFF." The pseudocode also resets Q's
// estimate to I_DONT_KNOW; this implementation keeps the accumulated remote
// estimate instead — forgetting it (while the next packet re-syncs the
// local counter with my_backoff) would erase all memory of the congestion
// that caused the drop, letting a jammed sender return at full aggression
// after every discarded packet. The estimate still decays normally through
// Fdec on success and the copying rules.
func (p *PerDest) OnGiveUp(dst frame.NodeID) {
	pe := p.Peer(dst)
	pe.Local = int32(p.strat.Max())
	pe.SendRetry = 1
}

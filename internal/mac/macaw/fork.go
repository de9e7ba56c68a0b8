package macaw

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// AdoptFrom implements mac.Engine: it copies the warm twin's mutable protocol
// state into m, which must be a freshly built twin bound to an identically
// built environment (DESIGN.md §15).
// Queued and pending packets are shared — a mac.Packet is immutable while
// queued, and sharing preserves the pointer identity the piggyback path
// compares (queue head vs pending entry). The host's share barrier keeps
// either side from recycling a shared packet when it completes
// (internal/mac/fork.go). The pending state timer is re-armed
// at its exact (when, prio, seq) ordering key; the FSM state names its
// callback, except in SendData where five different frames can be on the air
// and the tx kind is the discriminator. It fails closed on anything this
// fork path cannot reproduce: a halted instance, mismatched options, a
// mismatched backoff policy, or a live timer with no discriminable owner.
func (m *MACAW) AdoptFrom(peer mac.Engine) error {
	w, ok := peer.(*MACAW)
	if !ok {
		return fmt.Errorf("macaw: adopt: engine is %T here vs %T in warm twin", m, peer)
	}
	if w.halted || m.halted {
		return fmt.Errorf("macaw: adopt: halted instance (warm=%t fork=%t)", w.halted, m.halted)
	}
	mo, wo := m.opt, w.opt
	mo.Policy, wo.Policy = nil, nil
	if mo != wo {
		return fmt.Errorf("macaw: adopt: options differ (%+v here vs %+v in warm twin)", mo, wo)
	}
	if err := backoff.Adopt(m.pol, w.pol); err != nil {
		return err
	}
	m.st = w.st
	m.deferUntil = w.deferUntil
	m.carrierClearAt = w.carrierClearAt
	if m.opt.PerStream {
		m.streams.AdoptFrom(w.streams)
	} else {
		m.fifo.AdoptFrom(&w.fifo)
	}
	m.attempts = copyMap(w.attempts)
	m.seq = w.seq
	m.cur = w.cur
	m.curDst = w.curDst
	m.expectSrc = w.expectSrc
	m.tx, m.txHead, m.txWantAck = w.tx, w.txHead, w.txWantAck
	m.rrtsFor, m.rrtsLen, m.hasRRTS, m.rrtsSeen = w.rrtsFor, w.rrtsLen, w.hasRRTS, w.rrtsSeen
	m.lastAcked = copyMap(w.lastAcked)
	m.everAcked = copyMap(w.everAcked)
	m.seenESN = copyMap(w.seenESN)
	m.pending = copyMap(w.pending)
	m.pendingRetries = copyMap(w.pendingRetries)
	m.stats = w.stats

	var fn func(*MACAW)
	switch w.st {
	case Contend:
		fn = (*MACAW).onContendTimeout
	case WFCTS:
		fn = (*MACAW).onCTSTimeout
	case WFACK:
		fn = (*MACAW).onACKTimeout
	case WFDS, WFData, WFRTS:
		fn = (*MACAW).onExpectTimeout
	case Quiet:
		fn = (*MACAW).onQuietEnd
	case SendData:
		switch w.tx {
		case txMcastRTS:
			fn = (*MACAW).onMcastRTSSent
		case txMcastData:
			fn = (*MACAW).onMcastDataSent
		case txDS:
			fn = (*MACAW).onDSSent
		case txData:
			fn = (*MACAW).onDataAirDone
		case txCtrl:
			fn = (*MACAW).onCtrlSent
		default:
			return fmt.Errorf("macaw: adopt: SendData with tx kind %d has no timer owner", w.tx)
		}
	}
	if fn == nil && w.timer.Live() {
		return fmt.Errorf("macaw: adopt: live timer in state %s, which never arms one", w.st)
	}
	m.timer = m.env.Sim.ReadoptCall(w.timer, sim.Call[*MACAW], m, fn)
	return nil
}

func copyMap[K frame.NodeID, V int | uint32 | bool | *mac.Packet](src map[K]V) map[K]V {
	dst := make(map[K]V, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// BackoffPolicy exposes the live policy for barrier-time retuning (sweep
// deltas).
func (m *MACAW) BackoffPolicy() backoff.Policy { return m.pol }

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// failed attempt.
func (m *MACAW) SetMaxRetries(n int) { m.env.Cfg.MaxRetries = n }

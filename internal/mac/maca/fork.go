package maca

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// AdoptFrom implements mac.Engine: it copies the warm twin's mutable protocol
// state into m, which must be a freshly built twin bound to an identically
// built environment (DESIGN.md §15).
// Queued packets are shared: a mac.Packet is immutable while queued, and the
// host's share barrier keeps it from being recycled (internal/mac/fork.go).
// The pending state timer is re-armed at its exact (when, prio, seq) ordering
// key, with the callback named by the FSM state that armed it (each MACA
// state arms at most one timer, so the state is the full discriminator). It
// fails closed on anything this fork path cannot reproduce: a halted
// instance, a mismatched backoff policy, or a live timer in a state that
// never arms one.
func (m *MACA) AdoptFrom(peer mac.Engine) error {
	w, ok := peer.(*MACA)
	if !ok {
		return fmt.Errorf("maca: adopt: engine is %T here vs %T in warm twin", m, peer)
	}
	if w.halted || m.halted {
		return fmt.Errorf("maca: adopt: halted instance (warm=%t fork=%t)", w.halted, m.halted)
	}
	if err := backoff.Adopt(m.pol, w.pol); err != nil {
		return err
	}
	m.st = w.st
	m.q.AdoptFrom(&w.q)
	m.retries = w.retries
	m.deferUntil = w.deferUntil
	m.curDst = w.curDst
	m.expectFrom = w.expectFrom
	m.sending = w.sending
	m.seq = w.seq
	m.stats = w.stats

	fn := map[State]func(*MACA){
		Contend:  (*MACA).onContendTimeout,
		WFCTS:    (*MACA).onCTSTimeout,
		WFData:   (*MACA).onTimeoutToIdle,
		Quiet:    (*MACA).onQuietEnd,
		SendData: (*MACA).onDataSent,
	}[w.st]
	if fn == nil && w.timer.Live() {
		return fmt.Errorf("maca: adopt: live timer in state %s, which never arms one", w.st)
	}
	m.timer = m.env.Sim.ReadoptCall(w.timer, sim.Call[*MACA], m, fn)
	return nil
}

// BackoffPolicy exposes the live policy for barrier-time retuning (sweep
// deltas).
func (m *MACA) BackoffPolicy() backoff.Policy { return m.pol }

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// failed attempt.
func (m *MACA) SetMaxRetries(n int) { m.env.Cfg.MaxRetries = n }

package csma

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// AdoptFrom implements mac.Engine: it copies the warm twin's mutable protocol
// state into c, which must be a freshly built twin bound to an identically
// built environment (DESIGN.md §15).
// Queued packets are shared: a mac.Packet is immutable while queued, and the
// host's share barrier keeps it from being recycled (internal/mac/fork.go).
// The pending state timer is re-armed at its exact (when, prio, seq) ordering
// key. The FSM state discriminates the callback, with one refinement: in
// Sending the timer completes a DATA frame when sending is set and an ACK
// frame when it is nil (the engine maintains exactly that invariant). It
// fails closed on anything this fork path cannot reproduce.
func (c *CSMA) AdoptFrom(peer mac.Engine) error {
	w, ok := peer.(*CSMA)
	if !ok {
		return fmt.Errorf("csma: adopt: engine is %T here vs %T in warm twin", c, peer)
	}
	if w.halted || c.halted {
		return fmt.Errorf("csma: adopt: halted instance (warm=%t fork=%t)", w.halted, c.halted)
	}
	if c.opt.ACK != w.opt.ACK {
		return fmt.Errorf("csma: adopt: options differ (ack=%t here vs %t in warm twin)", c.opt.ACK, w.opt.ACK)
	}
	if err := backoff.Adopt(c.pol, w.pol); err != nil {
		return err
	}
	c.st = w.st
	c.q.AdoptFrom(&w.q)
	c.retries = w.retries
	c.sending = w.sending
	c.seq = w.seq
	c.stats = w.stats

	var fn func(*CSMA)
	switch w.st {
	case Backoff:
		fn = (*CSMA).attempt
	case Sending:
		if w.sending != nil {
			fn = (*CSMA).onDataAirDone
		} else {
			fn = (*CSMA).onAckAirDone
		}
	case WFACK:
		fn = (*CSMA).onACKTimeout
	}
	if fn == nil && w.timer.Live() {
		return fmt.Errorf("csma: adopt: live timer in state %s, which never arms one", w.st)
	}
	c.timer = c.env.Sim.ReadoptCall(w.timer, sim.Call[*CSMA], c, fn)
	return nil
}

// BackoffPolicy exposes the live policy for barrier-time retuning (sweep
// deltas).
func (c *CSMA) BackoffPolicy() backoff.Policy { return c.pol }

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// failed attempt.
func (c *CSMA) SetMaxRetries(n int) { c.env.Cfg.MaxRetries = n }

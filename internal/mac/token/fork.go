package token

import (
	"fmt"

	"macaw/internal/mac"
	"macaw/internal/sim"
)

// AdoptFrom implements mac.Engine: it copies the warm twin's mutable protocol
// state into t, which must be a freshly built twin bound to an identically
// built environment (DESIGN.md §15).
// Queued packets are shared: a mac.Packet is immutable while queued, and the
// host's share barrier keeps it from being recycled (internal/mac/fork.go).
// Both pending events (the state timer and the silence watchdog) are re-armed
// at their exact (when, prio, seq) ordering keys. The state timer's callback
// is discriminated by FSM state: Holding completes a DATA frame when sending
// is set and resumes after a hold pause when it is nil; Passing watches the
// successor. The one timer this path cannot reproduce is the ring-bootstrap
// acquire armed by New at station zero — its handle is discarded at build —
// but it fires one slot into the run, so it can never still be pending at a
// warm barrier; if it somehow were, the fork's event heap would hold fewer
// events than the warm capture and the byte-verification step fails closed.
func (t *Token) AdoptFrom(peer mac.Engine) error {
	w, ok := peer.(*Token)
	if !ok {
		return fmt.Errorf("token: adopt: engine is %T here vs %T in warm twin", t, peer)
	}
	if w.halted || t.halted {
		return fmt.Errorf("token: adopt: halted instance (warm=%t fork=%t)", w.halted, t.halted)
	}
	if t.ringPos != w.ringPos || len(t.opt.Ring) != len(w.opt.Ring) {
		return fmt.Errorf("token: adopt: ring position %d/%d here vs %d/%d in warm twin",
			t.ringPos, len(t.opt.Ring), w.ringPos, len(w.opt.Ring))
	}
	t.st = w.st
	t.q.AdoptFrom(&w.q)
	t.passTo = w.passTo
	t.sentThis = w.sentThis
	t.sending = w.sending
	t.skipNext = w.skipNext
	t.seq = w.seq
	t.stats = w.stats
	t.Regenerations = w.Regenerations
	t.Skips = w.Skips

	var fn func(*Token)
	switch w.st {
	case Holding:
		if w.sending != nil {
			fn = (*Token).onDataSent
		} else {
			fn = (*Token).onHoldPause
		}
	case Passing:
		fn = (*Token).onWatchTimeout
	}
	if fn == nil && w.timer.Live() {
		return fmt.Errorf("token: adopt: live timer in state %s, which never arms one", w.st)
	}
	t.timer = t.env.Sim.ReadoptCall(w.timer, sim.Call[*Token], t, fn)
	t.watchdog = t.env.Sim.ReadoptCall(w.watchdog, sim.Call[*Token], t, (*Token).onSilence)
	return nil
}

package tournament

import (
	"fmt"

	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// AdoptFrom implements mac.Engine: it copies the warm twin's mutable protocol
// state into t, which must be a freshly built twin bound to an identically
// built environment (DESIGN.md §15). Queued packets are shared: a mac.Packet
// is immutable while queued, and the host's share barrier keeps it from being
// recycled (internal/mac/fork.go). The pending state timer is re-armed at its
// exact (when, prio, seq) ordering key, with the timer kind (not the FSM
// state) selecting the continuation. It fails closed on anything this path
// cannot reproduce.
func (t *Tournament) AdoptFrom(peer mac.Engine) error {
	w, ok := peer.(*Tournament)
	if !ok {
		return fmt.Errorf("tournament: adopt: engine is %T here vs %T in warm twin", t, peer)
	}
	if w.halted || t.halted {
		return fmt.Errorf("tournament: adopt: halted instance (warm=%t fork=%t)", w.halted, t.halted)
	}
	if t.opt != w.opt {
		return fmt.Errorf("tournament: adopt: options differ (%+v here vs %+v in warm twin)", t.opt, w.opt)
	}
	t.st = w.st
	t.q.AdoptFrom(&w.q)
	t.draw = w.draw
	t.round = w.round
	t.roundStart = w.roundStart
	t.sentSig = w.sentSig
	t.lastBusy = w.lastBusy
	t.retries = w.retries
	t.sending = w.sending
	t.lastSeq = make(map[frame.NodeID]uint32, len(w.lastSeq))
	for k, v := range w.lastSeq {
		t.lastSeq[k] = v
	}
	t.seq = w.seq
	t.sigs = w.sigs
	t.stats = w.stats

	t.tk = w.tk
	var fn func(*Tournament)
	if w.tk != tNone {
		fn = timerFn(w.tk)
	}
	if fn == nil && w.timer.Live() {
		return fmt.Errorf("tournament: adopt: live timer with kind %d, which has no continuation", w.tk)
	}
	t.timer = t.env.Sim.ReadoptCall(w.timer, sim.Call[*Tournament], t, fn)
	return nil
}

// SetWindow rewrites the constant contention window at a sweep barrier. It
// fails closed below the floor of 2 (a 1-wide window has zero rounds and
// every contention would collide) — the sweep delta layer surfaces this as a
// validation error rather than clamping silently.
func (t *Tournament) SetWindow(v int) error {
	if v < 2 {
		return fmt.Errorf("tournament: window %d below floor 2", v)
	}
	t.opt.Window = v
	return nil
}

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// unacknowledged data frame.
func (t *Tournament) SetMaxRetries(n int) { t.env.Cfg.MaxRetries = n }

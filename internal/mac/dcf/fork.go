package dcf

import (
	"fmt"

	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// AdoptFrom implements mac.Engine: it copies the warm twin's mutable protocol
// state into d, which must be a freshly built twin bound to an identically
// built environment (DESIGN.md §15). Queued packets are shared: a mac.Packet
// is immutable while queued, and the host's share barrier keeps it from being
// recycled (internal/mac/fork.go). The pending state timer is re-armed at its
// exact (when, prio, seq) ordering key. The timer kind, not the FSM state,
// discriminates the callback: WFACK chains a broadcast-airtime timer and an
// ACK timeout, and SendACK chains a SIFS gap and an ACK airtime, so state
// alone is ambiguous. It fails closed on anything this path cannot reproduce.
func (d *DCF) AdoptFrom(peer mac.Engine) error {
	w, ok := peer.(*DCF)
	if !ok {
		return fmt.Errorf("dcf: adopt: engine is %T here vs %T in warm twin", d, peer)
	}
	if w.halted || d.halted {
		return fmt.Errorf("dcf: adopt: halted instance (warm=%t fork=%t)", w.halted, d.halted)
	}
	if d.opt != w.opt {
		return fmt.Errorf("dcf: adopt: options differ (%+v here vs %+v in warm twin)", d.opt, w.opt)
	}
	d.st = w.st
	d.q.AdoptFrom(&w.q)
	d.cw = w.cw
	d.bo = w.bo
	d.src = w.src
	d.lrc = w.lrc
	d.nav = w.nav
	d.sending = w.sending
	d.peer = w.peer
	d.peerBytes = w.peerBytes
	d.peerSeq = w.peerSeq
	d.lastSeq = make(map[frame.NodeID]uint32, len(w.lastSeq))
	for k, v := range w.lastSeq {
		d.lastSeq[k] = v
	}
	d.seq = w.seq
	d.stats = w.stats

	d.tk = w.tk
	var fn func(*DCF)
	if w.tk != tNone {
		fn = timerFn(w.tk)
	}
	if fn == nil && w.timer.Live() {
		return fmt.Errorf("dcf: adopt: live timer with kind %d, which has no continuation", w.tk)
	}
	d.timer = d.env.Sim.ReadoptCall(w.timer, sim.Call[*DCF], d, fn)
	return nil
}

// CWBounds returns the live CWmin/CWmax pair — the sweep delta layer reads
// them to validate a cw.* delta against every station before applying it to
// any.
func (d *DCF) CWBounds() (min, max int) { return d.opt.CWMin, d.opt.CWMax }

// SetCWMin rewrites the minimum contention window at a sweep barrier. It
// fails closed when v would invert the window bounds — the sweep delta layer
// surfaces this as a validation error rather than clamping silently.
func (d *DCF) SetCWMin(v int) error {
	if v < 1 {
		return fmt.Errorf("dcf: cw.min %d below floor 1", v)
	}
	if v > d.opt.CWMax {
		return fmt.Errorf("dcf: cw.min %d above cw.max %d", v, d.opt.CWMax)
	}
	d.opt.CWMin = v
	if d.cw < v {
		d.cw = v
	}
	return nil
}

// SetCWMax rewrites the maximum contention window at a sweep barrier, failing
// closed when v would fall below the configured minimum.
func (d *DCF) SetCWMax(v int) error {
	if v < d.opt.CWMin {
		return fmt.Errorf("dcf: cw.max %d below cw.min %d", v, d.opt.CWMin)
	}
	d.opt.CWMax = v
	if d.cw > v {
		d.cw = v
	}
	return nil
}

// SetShortRetry rewrites dot11ShortRetryLimit, effective from the next failed
// RTS attempt.
func (d *DCF) SetShortRetry(n int) error {
	if n < 1 {
		return fmt.Errorf("dcf: retry.short %d below floor 1", n)
	}
	d.opt.ShortRetry = n
	return nil
}

// SetLongRetry rewrites dot11LongRetryLimit, effective from the next failed
// data attempt.
func (d *DCF) SetLongRetry(n int) error {
	if n < 1 {
		return fmt.Errorf("dcf: retry.long %d below floor 1", n)
	}
	d.opt.LongRetry = n
	return nil
}

package fault

import (
	"fmt"
	"strings"

	"macaw/internal/backoff"
	"macaw/internal/sim"
	"macaw/internal/stats"

	"macaw/internal/core"
)

// Watchdog sweeps every station's FSM at a fixed simulated interval and
// panics (by default) when a liveness invariant breaks:
//
//   - Wedged FSM: a station outside IDLE, or idle with pending traffic,
//     with no state timer armed — nothing will ever move it again.
//   - Unbounded retry loop: retries accumulate past any bound the retry
//     limit allows without a single completion or drop making progress.
//   - Queue leak: a MAC queue grows past MaxQueue.
//
// Checks run at scheduling priority +1, after every same-instant protocol
// event (phy deliveries at negative priority, timers at 0) has settled, so
// the sweep observes quiescent state, never a mid-callback transient.
// Stations that are crashed (radio disabled / MAC halted) are skipped.
//
// Violations panic with a full FSM/timer dump of every station; tests set
// OnViolation to capture the report instead.
type Watchdog struct {
	n *core.Network
	// Interval is the sweep period (default 100 ms).
	Interval sim.Duration
	// MaxQueue bounds every MAC queue; 0 disables the check.
	MaxQueue int
	// RetryBudget bounds retries-without-progress per station; 0 derives
	// a generous bound from the retry limit and station count.
	RetryBudget int
	// OnViolation, when set, receives the violation report instead of the
	// default panic.
	OnViolation func(report string)

	checks     int
	violations int
	prog       map[*core.Station]*progress
}

// progress tracks a station's forward movement between sweeps.
type progress struct {
	sent, drops int // completions at the last sweep
	retryBase   int // retries at the last sweep that made progress
}

// NewWatchdog returns a watchdog for n with the default interval and a
// retry budget derived from the network's retry limit and size.
func NewWatchdog(n *core.Network) *Watchdog {
	return &Watchdog{
		n:        n,
		Interval: 100 * sim.Millisecond,
		prog:     make(map[*core.Station]*progress),
	}
}

// Start arms the sweep loop from time at onward. Call before Network.Run.
func (w *Watchdog) Start(at sim.Time) {
	w.n.Sim.AtPriority(at, 1, w.sweep)
}

// Checks reports how many sweeps completed.
func (w *Watchdog) Checks() int { return w.checks }

// Violations reports how many sweeps found a broken invariant (only
// meaningful with OnViolation set; the default panics on the first).
func (w *Watchdog) Violations() int { return w.violations }

// Counters folds the watchdog's activity into fault counters.
func (w *Watchdog) Counters() stats.FaultCounters {
	return stats.FaultCounters{WatchdogChecks: w.checks}
}

// retryBudget returns the configured or derived retries-without-progress
// bound: a station can burn at most MaxRetries+1 attempts per destination
// before a drop (which is progress), so anything beyond that times the
// number of possible destinations means a counter is looping.
func (w *Watchdog) retryBudget() int {
	if w.RetryBudget > 0 {
		return w.RetryBudget
	}
	per := w.n.Cfg.MaxRetries + 2
	return per*(len(w.n.Stations())+1) + 8
}

func (w *Watchdog) sweep() {
	var faults []string
	for _, st := range w.n.Stations() {
		if v := w.checkStation(st); v != "" {
			faults = append(faults, v)
		}
	}
	w.checks++
	if len(faults) > 0 {
		w.violations++
		report := fmt.Sprintf("fault: watchdog at t=%v:\n  %s\n%s",
			w.n.Sim.Now(), strings.Join(faults, "\n  "), w.Dump())
		if w.OnViolation != nil {
			w.OnViolation(report)
		} else {
			panic(report)
		}
	}
	w.n.Sim.AtPriority(w.n.Sim.Now()+w.Interval, 1, w.sweep)
}

// checkStation returns a one-line violation description, or "".
func (w *Watchdog) checkStation(st *core.Station) string {
	if !st.Radio().Enabled() {
		return "" // crashed or powered off: exempt until restart
	}
	e := st.MAC()
	if e.Halted() {
		return ""
	}
	qlen := e.QueueLen()
	state := e.FSMState()
	if !e.TimerPending() {
		if state != "IDLE" {
			return fmt.Sprintf("%s wedged: state %s with no timer armed", st.Name(), state)
		}
		if qlen > 0 {
			return fmt.Sprintf("%s wedged: IDLE with %d queued packets and no timer armed", st.Name(), qlen)
		}
	}
	if w.MaxQueue > 0 && qlen > w.MaxQueue {
		return fmt.Sprintf("%s queue leak: %d packets queued (bound %d)", st.Name(), qlen, w.MaxQueue)
	}
	ms := st.MAC().Stats()
	p := w.prog[st]
	if p == nil {
		p = &progress{}
		w.prog[st] = p
	}
	if ms.DataSent != p.sent || ms.Drops != p.drops {
		p.sent, p.drops, p.retryBase = ms.DataSent, ms.Drops, ms.Retries
	} else if ms.Retries-p.retryBase > w.retryBudget() {
		return fmt.Sprintf("%s retry loop: %d retries without a completion or drop (budget %d)",
			st.Name(), ms.Retries-p.retryBase, w.retryBudget())
	}
	return ""
}

// policyHolder is the introspection surface the backoff-driven engines
// (csma, maca, macaw) expose for their backoff policy.
type policyHolder interface{ BackoffPolicy() backoff.Policy }

// StaleBackoff reports the per-destination backoff entries that are stale
// against a restarted peer: holder Y's entry about X claims to have seen an
// exchange number higher than X has issued in its current life. Exchange
// numbers only grow within one lifetime, so SeenESN(Y about X) must never
// exceed SendESN(X toward Y) once both entries exist; an entry left behind
// by a dead instance violates this until the resync rule repairs it on X's
// first post-restart frame. Pairs where X holds no entry toward Y (no
// post-restart contact yet) are skipped — the comparison is undefined.
func (w *Watchdog) StaleBackoff() []string {
	byID := make(map[int64]*core.Station)
	for _, st := range w.n.Stations() {
		byID[int64(st.ID())] = st
	}
	var stale []string
	for _, holder := range w.n.Stations() {
		pd := perDestOf(holder)
		if pd == nil {
			continue
		}
		for _, id := range pd.PeerIDs() {
			peer := byID[int64(id)]
			if peer == nil {
				continue
			}
			ppd := perDestOf(peer)
			if ppd == nil {
				continue
			}
			back, ok := ppd.Lookup(holder.ID())
			if !ok {
				continue
			}
			entry, _ := pd.Lookup(id)
			if seen, sent := entry.SeenESN, back.SendESN; seen > sent {
				stale = append(stale, fmt.Sprintf("%s holds stale entry for %s: SeenESN %d > peer SendESN %d",
					holder.Name(), peer.Name(), seen, sent))
			}
		}
	}
	return stale
}

// perDestOf returns the station's per-destination policy, or nil.
func perDestOf(st *core.Station) *backoff.PerDest {
	ph, ok := st.MAC().(policyHolder)
	if !ok {
		return nil
	}
	pd, _ := ph.BackoffPolicy().(*backoff.PerDest)
	return pd
}

// Dump renders every station's FSM, timer, queue, and counter state — the
// post-mortem attached to watchdog panics.
func (w *Watchdog) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "station dump at t=%v (sweep %d):\n", w.n.Sim.Now(), w.checks)
	for _, st := range w.n.Stations() {
		e := st.MAC()
		timer := "none"
		if e.TimerPending() {
			timer = fmt.Sprint(e.TimerWhen())
		}
		ms := e.Stats()
		fmt.Fprintf(&b, "  %-4s id=%d enabled=%v state=%-8s timer=%-12s queue=%-3d sent=%d recv=%d retries=%d drops=%d crashes=%d restarts=%d\n",
			st.Name(), st.ID(), st.Radio().Enabled(), e.FSMState(), timer, e.QueueLen(),
			ms.DataSent, ms.DataReceived, ms.Retries, ms.Drops, st.Crashes(), st.Restarts())
	}
	if next, ok := w.n.Sim.NextEventTime(); ok {
		fmt.Fprintf(&b, "  next event at %v, %d pending\n", next, w.n.Sim.Pending())
	} else {
		b.WriteString("  event queue empty\n")
	}
	return b.String()
}

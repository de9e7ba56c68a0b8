// Package oracle implements a passive protocol-conformance checker: it
// subscribes to the MAC-internal observer hooks (mac.Observer) of every
// station in a network and asserts the paper's Appendix A/B rules online —
// exchange ordering, deferral horizons, backoff-header bounds, ESN
// bookkeeping, and exactly-once delivery — with zero effect on simulation
// results. A violation produces a replayable report carrying the seed, the
// station, the rule id, and the last K trace events at that station.
//
// Rule catalog (documented with paper citations in DESIGN.md §11):
//
//	ORD-CTS   CTS only answers an unanswered RTS       (App. A/B control rules 2, 8)
//	ORD-DATA  unicast DATA only after its granting CTS (control rule 3)
//	ORD-DS    DS only in the Full exchange, after CTS  (§3.3.2)
//	ORD-ACK   ACK only for the DATA just received      (control rules 5, 7)
//	ORD-RRTS  RRTS only for a deferred RTS's sender    (§3.3.3)
//	DEF-1     no RTS/RRTS before horizon + one slot    (§3.2, defer rules 1-4)
//	HDR-1     backoff headers within [BOmin, BOmax]    (§3.1, App. B)
//	HDR-2     ESN non-decreasing per destination       (App. B)
//	DEL-1     delivered seq monotone per stream        (§3.2, §3.3.1)
//	DEL-2     no duplicate delivery to transport       (§3.3.1)
//
// Scoping: CSMA stations (no RTS-CTS handshake, duplicates on lost ACKs by
// design) are checked only against HDR rules. DCF stations follow the
// RTS-CTS-DATA-ACK ordering rules but stamp no MACAW backoff headers, so the
// HDR rules are skipped for them; tournament stations (no handshake beyond
// the final ACK) are checked only against ORD-ACK. Stations running a
// protocol the oracle does not model (e.g. the token-ring extension) are
// recorded but not checked; the dispatch is by the engine's SPI Protocol()
// name, so a new backend is unchecked until the oracle grows rules for it.
// Restarting a station resets every expectation the oracle
// holds about it — its own per-lifetime state and the ESN/delivery
// high-water marks its peers accumulated — exactly as the protocol's own
// reboot semantics do.
package oracle

import (
	"errors"
	"fmt"
	"strings"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/trace"
)

// Rule identifiers, as documented in DESIGN.md §11.
const (
	RuleORDCTS  = "ORD-CTS"
	RuleORDDATA = "ORD-DATA"
	RuleORDDS   = "ORD-DS"
	RuleORDACK  = "ORD-ACK"
	RuleORDRRTS = "ORD-RRTS"
	RuleDEF1    = "DEF-1"
	RuleHDR1    = "HDR-1"
	RuleHDR2    = "HDR-2"
	RuleDEL1    = "DEL-1"
	RuleDEL2    = "DEL-2"
)

// ringSize is how many recent internal events each station's report carries.
const ringSize = 24

// maxRecorded bounds the fully-detailed violations kept in memory; the total
// count is always exact.
const maxRecorded = 16

// Violation is one detected rule breach, with enough context to replay it.
type Violation struct {
	// Rule is the rule identifier (e.g. "DEF-1").
	Rule string
	// Paper cites the paper section the rule encodes.
	Paper string
	// Station is the violating station's name.
	Station string
	// At is the simulation time of the breach.
	At sim.Time
	// Seed reproduces the run.
	Seed int64
	// Detail describes the specific breach.
	Detail string
	// Events are the last-K internal events at the station, oldest first.
	Events []trace.Event
}

// String renders the violation as a replayable report block.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule %s (%s) violated by %s at %.6fs (seed %d): %s",
		v.Rule, v.Paper, v.Station, v.At.Seconds(), v.Seed, v.Detail)
	if len(v.Events) > 0 {
		b.WriteString("\n  last events:")
		for _, e := range v.Events {
			b.WriteString("\n    ")
			b.WriteString(e.String())
		}
	}
	return b.String()
}

// Oracle audits every MAC instance of a network against the rule catalog.
// Attach it before stations are added; it is strictly passive (no
// transmissions, no scheduling, no randomness), so an audited run is
// bit-identical to an unaudited one.
type Oracle struct {
	seed       int64
	cfg        mac.Config
	mons       map[frame.NodeID]*monitor
	violations []Violation
	total      int
}

// New returns an oracle for a run seeded with seed (recorded so reports are
// replayable).
func New(seed int64) *Oracle {
	return &Oracle{seed: seed, cfg: mac.DefaultConfig(), mons: make(map[frame.NodeID]*monitor)}
}

// Attach installs the oracle as n's MAC observer factory. It must be called
// before stations are added to the network.
func (o *Oracle) Attach(n *core.Network) {
	o.cfg = n.Cfg
	n.AddMACObserver(func(st *core.Station) mac.Observer {
		return o.observerFor(st)
	})
}

// observerFor builds the monitor for one MAC lifetime of st. A repeat call
// for the same station means the station rebooted: every expectation peers
// hold about the old instance — ESN high-water marks, delivered sequence
// numbers, pending RTS/CTS state — restarts from scratch, exactly as the
// protocol's own resynchronization rules assume.
func (o *Oracle) observerFor(st *core.Station) mac.Observer {
	id := st.ID()
	if _, reborn := o.mons[id]; reborn {
		for _, m := range o.mons {
			m.forgetPeer(id)
		}
	}
	m := newMonitor(o, id, st.Name(), st.Clock().Now, st.MAC)
	o.mons[id] = m
	return m
}

// Violations returns the recorded violations (detail capped at maxRecorded;
// Total is exact).
func (o *Oracle) Violations() []Violation { return o.violations }

// Total returns the exact number of violations detected.
func (o *Oracle) Total() int { return o.total }

// Err returns nil when the run was clean, or an error carrying the full
// report.
func (o *Oracle) Err() error {
	if o.total == 0 {
		return nil
	}
	return errors.New(o.Report())
}

// Report renders every recorded violation with its replay seed.
func (o *Oracle) Report() string {
	if o.total == 0 {
		return "oracle: no protocol violations"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %d protocol violation(s); replay with -audit -seed %d", o.total, o.seed)
	for i := range o.violations {
		b.WriteString("\n")
		b.WriteString(o.violations[i].String())
	}
	if o.total > len(o.violations) {
		fmt.Fprintf(&b, "\n... %d more violation(s) suppressed", o.total-len(o.violations))
	}
	return b.String()
}

// protoKind is the protocol family a monitor models.
type protoKind int

const (
	kindUnknown protoKind = iota
	kindCSMA
	kindMACA
	kindMACAW
	kindDCF
	kindTournament
	kindOther // a protocol the oracle does not model (e.g. token ring)
)

// stream keys per-source delivery bookkeeping; the multicast queue is a
// distinct stream from the unicast one (§3.2 — sequence numbers interleave
// across a sender's per-destination queues).
type stream struct {
	src   frame.NodeID
	mcast bool
}

// monitor audits one MAC lifetime of one station. All methods are invoked
// synchronously from inside the MAC at the instant of the event.
type monitor struct {
	o     *Oracle
	id    frame.NodeID
	name  string
	clock func() sim.Time
	macOf func() mac.Engine
	kind  protoKind
	opts  macaw.Options

	// ring holds the last ringSize internal events, oldest at
	// (next-n) mod ringSize. Entries stay typed; they are rendered to
	// trace events only when a violation copies the ring.
	ring    [ringSize]entry
	next, n int

	// horizon mirrors the protocol's defer rules over overheard traffic.
	horizon sim.Time

	// pendingRTS marks peers whose for-us RTS we have not yet answered.
	pendingRTS map[frame.NodeID]bool
	// solicited marks peers whose RRTS entitles us to an immediate RTS
	// (control rule 13).
	solicited map[frame.NodeID]bool
	// grant holds, per peer, the sequence number its last unconsumed CTS
	// granted us.
	grant map[frame.NodeID]uint32
	// dsSent holds, per peer, the sequence number our last DS announced.
	dsSent map[frame.NodeID]uint32
	// esnTx is the ESN high-water mark we stamped toward each peer.
	esnTx map[frame.NodeID]uint32
	// lastData is the sequence number of the last DATA received from each
	// peer (what an ACK may acknowledge).
	lastData map[frame.NodeID]uint32
	// delivered is the last sequence number surfaced to transport per
	// incoming stream.
	delivered map[stream]uint32
}

func newMonitor(o *Oracle, id frame.NodeID, name string, clock func() sim.Time, macOf func() mac.Engine) *monitor {
	return &monitor{
		o:          o,
		id:         id,
		name:       name,
		clock:      clock,
		macOf:      macOf,
		pendingRTS: make(map[frame.NodeID]bool),
		solicited:  make(map[frame.NodeID]bool),
		grant:      make(map[frame.NodeID]uint32),
		dsSent:     make(map[frame.NodeID]uint32),
		esnTx:      make(map[frame.NodeID]uint32),
		lastData:   make(map[frame.NodeID]uint32),
		delivered:  make(map[stream]uint32),
	}
}

// forgetPeer clears every expectation this monitor holds about a rebooted
// peer.
func (m *monitor) forgetPeer(id frame.NodeID) {
	delete(m.pendingRTS, id)
	delete(m.solicited, id)
	delete(m.grant, id)
	delete(m.dsSent, id)
	delete(m.esnTx, id)
	delete(m.lastData, id)
	delete(m.delivered, stream{src: id})
	delete(m.delivered, stream{src: id, mcast: true})
}

// ensureKind lazily resolves the protocol engine; the observer factory runs
// before the station's MAC field is assigned, so the first event is the
// earliest safe moment to inspect it. Dispatch is by the SPI Protocol()
// name — the one concrete assertion left fetches the MACAW exchange options
// the defer rules need.
func (m *monitor) ensureKind() {
	if m.kind != kindUnknown {
		return
	}
	eng := m.macOf()
	switch eng.Protocol() {
	case "macaw":
		m.kind = kindMACAW
		if mw, ok := eng.(*macaw.MACAW); ok {
			m.opts = mw.Options()
		}
	case "maca":
		m.kind = kindMACA
	case "csma":
		m.kind = kindCSMA
	case "dcf":
		m.kind = kindDCF
	case "tournament":
		m.kind = kindTournament
	default:
		m.kind = kindOther
	}
}

func (m *monitor) now() sim.Time { return m.clock() }

// entryKind tells what a ring entry recorded.
type entryKind uint8

const (
	entryRx entryKind = iota
	entryTx
	entryDeliver
	entryState
	entryTimerArmed
	entryTimerCancelled
	entryQueue
)

// entry is one ring record: the hook's arguments, unformatted. Every MAC
// event pushes one, and the ring is read only when a violation is recorded,
// so formatting waits for render.
type entry struct {
	at       sim.Time
	kind     entryKind
	typ      frame.Type
	src, dst frame.NodeID // frame events; dst is also the queue's destination
	seq      uint32
	n        int      // queue length after a queue operation
	op       string   // queue operation
	deadline sim.Time // firing time of an armed timer
	from, to string   // FSM transition
}

func (m *monitor) push(e entry) {
	e.at = m.now()
	m.ring[m.next] = e
	m.next = (m.next + 1) % ringSize
	if m.n < ringSize {
		m.n++
	}
}

// render turns a ring entry into the trace event a report carries.
func (m *monitor) render(e entry) trace.Event {
	ev := trace.Event{At: e.at, Station: m.name, Kind: trace.Mark}
	switch e.kind {
	case entryRx, entryTx:
		ev.Kind = trace.Receive
		if e.kind == entryTx {
			ev.Kind = trace.Transmit
		}
		ev.Type, ev.Src, ev.Dst, ev.Seq = e.typ, e.src, e.dst, e.seq
	case entryDeliver:
		ev.Note = fmt.Sprintf("deliver src=%v seq=%d", e.src, e.seq)
	case entryState:
		ev.Note = fmt.Sprintf("state %s -> %s", e.from, e.to)
	case entryTimerArmed:
		ev.Note = fmt.Sprintf("timer armed for %.6fs", e.deadline.Seconds())
	case entryTimerCancelled:
		ev.Note = "timer cancelled"
	case entryQueue:
		ev.Note = fmt.Sprintf("queue %s dst=%v len=%d", e.op, e.dst, e.n)
	}
	return ev
}

// events renders the ring, oldest first (nil when empty).
func (m *monitor) events() []trace.Event {
	if m.n == 0 {
		return nil
	}
	out := make([]trace.Event, m.n)
	start := m.next - m.n + ringSize
	for i := range out {
		out[i] = m.render(m.ring[(start+i)%ringSize])
	}
	return out
}

func (m *monitor) violate(rule, paper, format string, args ...any) {
	m.o.total++
	if len(m.o.violations) >= maxRecorded {
		return
	}
	m.o.violations = append(m.o.violations, Violation{
		Rule:    rule,
		Paper:   paper,
		Station: m.name,
		At:      m.now(),
		Seed:    m.o.seed,
		Detail:  fmt.Sprintf(format, args...),
		Events:  m.events(),
	})
}

// dataPlusAck mirrors the engine's defer span for a data packet plus its ACK
// leg when the exchange uses one.
func (m *monitor) dataPlusAck(dataBytes int) sim.Duration {
	cfg := m.o.cfg
	d := cfg.Turnaround + cfg.DataTime(dataBytes)
	if m.opts.Exchange.HasACK() {
		d += cfg.Turnaround + cfg.CtrlTime()
	}
	return d
}

// ObserveRx implements mac.Observer: track for-us handshake state and mirror
// the protocol's defer rules over overheard traffic.
func (m *monitor) ObserveRx(f *frame.Frame) {
	m.ensureKind()
	m.push(entry{kind: entryRx, typ: f.Type, src: f.Src, dst: f.Dst, seq: f.Seq})
	if m.kind == kindOther {
		return
	}
	if f.Dst == m.id {
		switch f.Type {
		case frame.RTS:
			m.pendingRTS[f.Src] = true
		case frame.CTS:
			m.grant[f.Src] = f.Seq
		case frame.DATA:
			m.lastData[f.Src] = f.Seq
		case frame.RRTS:
			m.solicited[f.Src] = true
		}
		return
	}
	cfg := m.o.cfg
	var span sim.Duration
	switch m.kind {
	case kindMACAW:
		if f.Dst == frame.Broadcast {
			// §3.3.4: "all stations defer for the length of the
			// following DATA transmission."
			if f.Type == frame.RTS {
				span = cfg.Turnaround + cfg.DataTime(int(f.DataBytes))
			}
		} else {
			switch f.Type {
			case frame.RTS:
				// Defer rule 1: room for the answering CTS.
				span = cfg.Turnaround + cfg.CtrlTime()
			case frame.CTS:
				// Defer rule 3: the data (plus DS and ACK legs).
				span = m.dataPlusAck(int(f.DataBytes))
				if m.opts.Exchange.HasDS() {
					span += cfg.Turnaround + cfg.CtrlTime()
				}
			case frame.DS:
				// Defer rule 2: the data packet and its ACK.
				span = m.dataPlusAck(int(f.DataBytes))
			case frame.RRTS:
				// Defer rule 4: room for an RTS-CTS exchange.
				span = 2 * (cfg.Turnaround + cfg.CtrlTime())
			}
		}
	case kindMACA:
		switch f.Type {
		case frame.RTS:
			span = cfg.Turnaround + cfg.CtrlTime()
		case frame.CTS:
			span = cfg.Turnaround + cfg.DataTime(int(f.DataBytes))
		}
	}
	if span > 0 {
		if h := m.now() + span; h > m.horizon {
			m.horizon = h
		}
	}
}

// ObserveTx implements mac.Observer: every transmission is checked against
// the ordering, deferral, and header rules before it radiates.
func (m *monitor) ObserveTx(f *frame.Frame) {
	m.ensureKind()
	m.push(entry{kind: entryTx, typ: f.Type, src: f.Src, dst: f.Dst, seq: f.Seq})
	if m.kind == kindOther {
		return
	}
	m.checkHeaders(f)
	switch f.Type {
	case frame.RTS:
		m.checkRTS(f)
	case frame.RRTS:
		m.checkRRTS(f)
	case frame.CTS:
		m.checkCTS(f)
	case frame.DS:
		m.checkDS(f)
	case frame.DATA:
		m.checkDataTx(f)
	case frame.ACK:
		m.checkACK(f)
	}
}

// checkHeaders is HDR-1 and HDR-2: stamped backoff counters stay within
// [BOmin, BOmax] (remote may be I_DONT_KNOW) and the exchange sequence
// number toward any destination never regresses within one lifetime.
func (m *monitor) checkHeaders(f *frame.Frame) {
	if m.kind == kindDCF || m.kind == kindTournament {
		// Neither protocol stamps MACAW backoff headers or ESNs; their
		// frames carry zeros there by design.
		return
	}
	lo, hi := int16(backoff.DefaultMin), int16(backoff.DefaultMax)
	if f.LocalBackoff < lo || f.LocalBackoff > hi {
		m.violate(RuleHDR1, "§3.1/App. B",
			"%s to %v stamped local_backoff=%d outside [%d, %d]", f.Type, f.Dst, f.LocalBackoff, lo, hi)
	}
	if f.RemoteBackoff != frame.IDontKnow && (f.RemoteBackoff < lo || f.RemoteBackoff > hi) {
		m.violate(RuleHDR1, "§3.1/App. B",
			"%s to %v stamped remote_backoff=%d outside [%d, %d]", f.Type, f.Dst, f.RemoteBackoff, lo, hi)
	}
	if last, seen := m.esnTx[f.Dst]; seen && f.ESN < last {
		m.violate(RuleHDR2, "App. B",
			"%s to %v stamped ESN %d after %d", f.Type, f.Dst, f.ESN, last)
	}
	m.esnTx[f.Dst] = f.ESN
}

// checkDefer is DEF-1: a contention transmission begins no earlier than one
// slot after the derived defer horizon (§3.2: "an integer number of slot
// times after the end of the last defer period", the integer at least one).
func (m *monitor) checkDefer(f *frame.Frame) {
	if m.horizon == 0 {
		return
	}
	earliest := m.horizon + m.o.cfg.Slot()
	if now := m.now(); now < earliest {
		m.violate(RuleDEF1, "§3.2",
			"%s to %v transmitted at %.6fs, %.1fµs before horizon %.6fs + one slot",
			f.Type, f.Dst, now.Seconds(), float64(earliest-now)/1000, m.horizon.Seconds())
	}
}

func (m *monitor) checkRTS(f *frame.Frame) {
	if m.kind == kindCSMA {
		return
	}
	if f.Dst != frame.Broadcast && m.solicited[f.Dst] {
		// Control rule 13: the immediate answer to an RRTS rides on the
		// slots the RRTS reserved; the slotted defer rule does not apply.
		delete(m.solicited, f.Dst)
		return
	}
	m.checkDefer(f)
}

func (m *monitor) checkRRTS(f *frame.Frame) {
	if m.kind != kindMACAW {
		m.violate(RuleORDRRTS, "§3.3.3", "RRTS from a non-MACAW engine")
		return
	}
	if !m.pendingRTS[f.Dst] {
		m.violate(RuleORDRRTS, "§3.3.3",
			"RRTS to %v without a deferred RTS from that sender", f.Dst)
	}
	delete(m.pendingRTS, f.Dst)
	m.checkDefer(f)
}

func (m *monitor) checkCTS(f *frame.Frame) {
	if !m.pendingRTS[f.Dst] {
		m.violate(RuleORDCTS, "App. A/B control rules 2, 8",
			"CTS to %v without an unanswered RTS from that sender", f.Dst)
	}
	delete(m.pendingRTS, f.Dst)
}

func (m *monitor) checkDS(f *frame.Frame) {
	if m.kind != kindMACAW || !m.opts.Exchange.HasDS() {
		m.violate(RuleORDDS, "§3.3.2", "DS outside the Full exchange")
		return
	}
	if g, ok := m.grant[f.Dst]; !ok || g != f.Seq {
		m.violate(RuleORDDS, "§3.3.2",
			"DS to %v seq=%d without a granting CTS for that sequence", f.Dst, f.Seq)
		return
	}
	m.dsSent[f.Dst] = f.Seq
}

func (m *monitor) checkDataTx(f *frame.Frame) {
	if f.Dst == frame.Broadcast || f.Multicast || m.kind == kindCSMA || m.kind == kindTournament {
		// Multicast data follows its RTS directly (§3.3.4); CSMA and the
		// tournament MAC send data with no granting handshake at all.
		return
	}
	if g, ok := m.grant[f.Dst]; !ok || g != f.Seq {
		m.violate(RuleORDDATA, "App. A/B control rule 3",
			"DATA to %v seq=%d without a granting CTS for that sequence", f.Dst, f.Seq)
	} else if m.kind == kindMACAW && m.opts.Exchange.HasDS() {
		if ds, ok := m.dsSent[f.Dst]; !ok || ds != f.Seq {
			m.violate(RuleORDDATA, "§3.3.2",
				"DATA to %v seq=%d without its DS announcement in the Full exchange", f.Dst, f.Seq)
		}
	}
	delete(m.grant, f.Dst)
	delete(m.dsSent, f.Dst)
}

func (m *monitor) checkACK(f *frame.Frame) {
	if last, ok := m.lastData[f.Dst]; !ok || last != f.Seq {
		m.violate(RuleORDACK, "App. B control rules 5, 7",
			"ACK to %v seq=%d without matching received DATA", f.Dst, f.Seq)
	}
	// A repeated ACK answers a repeated RTS (control rule 7).
	delete(m.pendingRTS, f.Dst)
}

// ObserveDeliver implements mac.Observer: DEL-1/DEL-2 — per-stream delivery
// is strictly monotone within one sender lifetime, with no duplicates.
func (m *monitor) ObserveDeliver(f *frame.Frame) {
	m.ensureKind()
	m.push(entry{kind: entryDeliver, src: f.Src, seq: f.Seq})
	if m.kind != kindMACA && m.kind != kindMACAW {
		// CSMA re-delivers on lost ACKs by design; unmodeled protocols
		// are unchecked.
		return
	}
	key := stream{src: f.Src, mcast: f.Dst == frame.Broadcast}
	if last, ok := m.delivered[key]; ok {
		switch {
		case f.Seq == last:
			m.violate(RuleDEL2, "§3.3.1",
				"duplicate DATA seq=%d from %v surfaced to transport", f.Seq, f.Src)
		case f.Seq < last:
			m.violate(RuleDEL1, "§3.2/§3.3.1",
				"DATA seq=%d from %v delivered after seq=%d", f.Seq, f.Src, last)
		}
	}
	m.delivered[key] = f.Seq
}

// ObserveState implements mac.Observer (report context only).
func (m *monitor) ObserveState(from, to string) {
	m.push(entry{kind: entryState, from: from, to: to})
}

// ObserveTimer implements mac.Observer (report context only).
func (m *monitor) ObserveTimer(at sim.Time) {
	if at < 0 {
		m.push(entry{kind: entryTimerCancelled})
		return
	}
	m.push(entry{kind: entryTimerArmed, deadline: at})
}

// ObserveQueue implements mac.Observer (report context only).
func (m *monitor) ObserveQueue(op string, dst frame.NodeID, n int) {
	m.push(entry{kind: entryQueue, op: op, dst: dst, n: n})
}

// ObserveRetry implements mac.Observer; retries carry no oracle rule.
func (m *monitor) ObserveRetry(frame.NodeID) {}

// ObserveDrop implements mac.Observer; drops carry no oracle rule.
func (m *monitor) ObserveDrop(frame.NodeID, mac.DropReason) {}

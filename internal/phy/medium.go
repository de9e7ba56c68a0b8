package phy

import (
	"fmt"
	"math"
	"math/rand"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
)

// Handler receives physical-layer indications for one radio. Callbacks are
// always delivered from the simulator event loop, never synchronously from
// inside a Transmit call, so handlers may freely call back into the radio.
//
// A frame pointer handed to a handler is the medium's own copy, payload
// bytes included, shared by every receiver of the transmission. It is valid
// only for the duration of the call: the handler must neither keep it nor
// mutate it, and must copy any field it needs afterwards (a copy of the
// frame by value still shares the payload bytes).
type Handler interface {
	// RadioReceive delivers a cleanly received frame, including overheard
	// frames addressed to other stations.
	RadioReceive(f *frame.Frame)
	// RadioCarrier signals transitions of the carrier-sense indication.
	RadioCarrier(busy bool)
}

// CorruptionObserver is an optional extension of Handler: if implemented,
// the radio reports receptions destroyed by collision or noise. Only the
// intended destination is notified. The frame pointer follows the Handler
// contract: valid for the call only, never kept or mutated.
type CorruptionObserver interface {
	RadioCorrupted(f *frame.Frame)
}

// handler is a radio's installed Handler with its CorruptionObserver view,
// resolved once. A notification carries the record current when it was
// scheduled and reaches that handler whatever is installed when it fires,
// so a record, once installed, is never rewritten: a radio's first handler
// lives in the radio record, and each later one gets a record of its own
// (see SetHandler). The record is a concrete pointer: the notifications'
// event arguments are typed any, and converting one back to an interface
// type is a runtime type assertion whose per-call-site cache allocates, at
// a random one of the first thousand or so events, when it takes the
// handler's type.
type handler struct {
	Handler
	obs CorruptionObserver
}

// handlerOf returns the record for h.
func handlerOf(h Handler) handler {
	obs, _ := h.(CorruptionObserver)
	return handler{h, obs}
}

// Counters aggregates medium-level statistics.
type Counters struct {
	// Transmissions counts frames put on the air.
	Transmissions int
	// Delivered counts clean receptions (including overhears).
	Delivered int
	// Corrupted counts receptions destroyed by collision.
	Corrupted int
	// NoiseDropped counts receptions destroyed by the noise model.
	NoiseDropped int
	// Aborted counts receptions abandoned because the receiving radio
	// started transmitting (half-duplex) or was disabled.
	Aborted int
}

type reception struct {
	radio     *Radio
	power     float64
	corrupted bool
	// tx is the owning transmission, excluded when summing interference
	// against this reception.
	tx *transmission
	// pos is the reception's position in radio.recs, kept current so the
	// completion path unlinks it without scanning.
	pos int
}

type transmission struct {
	m     *Medium
	radio *Radio
	// f is the medium's own copy of the radiated frame, taken at Transmit,
	// its payload copied into payload, a buffer the record keeps across
	// recycling. Receive and corruption notifications hand out &f, so the
	// record outlives endTx until the last of them has fired.
	f       frame.Frame
	payload []byte
	end     sim.Time
	rx      []*reception
	// idx is the transmission's position in Medium.active, kept current by
	// startTx/endTx so completion does not scan the active list.
	idx int
	// seq is the global start-order stamp. Per-radio audible lists stay
	// sorted by it, which is exactly the active-list (summation) order.
	seq uint64
	// pending counts the receive and corruption notifications endTx
	// scheduled that have not fired yet; the record is recycled when it
	// drops to zero.
	pending int
}

// Medium is the shared radio channel.
//
// Interference bookkeeping is designed so that every decision the medium
// takes is bit-identical to recomputing propagation from scratch on each
// query, while doing almost no floating-point math on the hot path:
//
//   - each radio's gains row caches prop.Gain for every ordered radio pair
//     it leads, so a pair's path loss (a math.Pow chain under the default
//     model) is computed at most once between position changes.
//   - carrier holds, per radio, the carrier-sense energy: the gain of every
//     active transmission, summed in active-list order. Starting a
//     transmission extends each radio's sum on the right (exactly extending
//     the left-to-right fold); ending one re-folds from the cached gains.
//     Sums are never maintained by blind add/subtract accumulation:
//     floating-point subtraction is not the inverse of addition, and drift
//     accumulated over millions of events could flip marginal capture and
//     carrier decisions, making runs diverge from their seed-defined
//     behaviour.
//
// On top of the caches sits the neighborhood index (see DESIGN.md §10).
// When the propagation model can certify a range (Bounded) and the params
// set a negligibility floor, every gain below the floor is stored as exactly
// zero, so a radio outside another's cutoff radius contributes nothing to
// any sum. Each radio then keeps the idx-sorted set of radios within the
// cutoff (nbr), maintained incrementally through a geom.Grid spatial hash,
// and the seq-sorted list of active transmissions from those radios
// (audible). Every per-event path — startTx, endTx, interference rechecks,
// carrier refolds, carrier notifications — iterates those neighbor sets
// instead of all radios and all transmissions. Because the skipped terms
// are exactly 0.0 and the included terms are summed in the same canonical
// order, the indexed paths are bit-identical to the exhaustive ones; the
// per-event cost merely drops from O(stations) to O(radio neighbors).
type Medium struct {
	s         *sim.Simulator
	prop      Propagation
	params    Params
	threshold float64
	capture   float64
	radios    []*Radio
	active    []*transmission
	noise     NoiseModel
	rng       *rand.Rand
	counters  Counters

	// carrier is the per-radio carrier-sense energy described above. The
	// entry for a transmitting radio may include its own (clamped, huge)
	// self-gain; it is never read while the radio transmits, and is
	// re-folded when its transmission ends.
	carrier []float64

	// Neighborhood index state. indexed is true when the propagation model
	// certified a cutoff for the params' negligibility floor; exhaustive
	// forces the O(N) iteration paths anyway (validation and benchmark
	// baseline — the results are bit-identical either way).
	indexed    bool
	exhaustive bool
	// floor is the negligibility floor: received power below it is stored
	// as exactly zero. Zero when the index is disabled (no clamping).
	floor float64
	// cutoff is the certified distance beyond which radio-to-radio gain is
	// below floor.
	cutoff float64
	grid   *geom.Grid
	// txSeq stamps transmissions with their start order.
	txSeq uint64
	// oldNbr and unionNbr are scratch buffers for mobility events; single is
	// the scratch for one-radio carrier updates.
	oldNbr   []*Radio
	unionNbr []*Radio
	single   [1]*Radio

	// txFree and recFree recycle transmission and reception records, so
	// steady-state traffic allocates neither. A reception is dead once
	// endTx finishes; a transmission once its last notification has fired
	// (it owns the frame the notifications deliver).
	txFree  []*transmission
	recFree []*reception
	// spare holds the radio records recycle took over, for Attach to
	// reuse; recycled marks a medium whose storage recycle handed on.
	spare    []*Radio
	recycled bool
}

// Closure-free event adapters for Simulator.AtPriorityCall: package-level
// functions whose arguments ride in the pooled event record, so the phy hot
// path schedules completions and notifications without allocating closures.
func endTxCall(a, b any)      { a.(*Medium).endTx(b.(*transmission)) }
func carrierOnCall(a, _ any)  { a.(*handler).RadioCarrier(true) }
func carrierOffCall(a, _ any) { a.(*handler).RadioCarrier(false) }

func receiveCall(a, b any) {
	tx := b.(*transmission)
	a.(*handler).RadioReceive(&tx.f)
	tx.notified()
}

func corruptedCall(a, b any) {
	tx := b.(*transmission)
	a.(*handler).obs.RadioCorrupted(&tx.f)
	tx.notified()
}

// notified retires one fired notification, recycling the record after the
// last. It runs after the handler returns, so a handler that transmits
// again allocates a different record and later receivers of this one still
// see its frame.
func (tx *transmission) notified() {
	tx.pending--
	if tx.pending == 0 {
		tx.m.freeTx(tx)
	}
}

// allocTx takes a transmission record off the free list, or makes one.
func (m *Medium) allocTx() *transmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		// A record recycle freed while on the air still lists its
		// receptions.
		t.rx, t.pending = t.rx[:0], 0
		return t
	}
	return &transmission{m: m}
}

// freeTx clears a dead transmission record's frame, keeping its payload
// buffer, and returns it to the free list.
func (m *Medium) freeTx(tx *transmission) {
	tx.f = frame.Frame{}
	m.txFree = append(m.txFree, tx)
}

// allocRec takes a reception record off the free list, or makes one.
func (m *Medium) allocRec(q *Radio, power float64) *reception {
	if n := len(m.recFree); n > 0 {
		rec := m.recFree[n-1]
		m.recFree[n-1] = nil
		m.recFree = m.recFree[:n-1]
		rec.radio, rec.power, rec.corrupted = q, power, false
		return rec
	}
	return &reception{radio: q, power: power}
}

// recycle takes over dead's storage, as sim.Simulator.Recycle does for a
// simulator: its radio records, each keeping the capacity of its neighbor,
// audible, reception and gain-row slices, for Attach to reuse; its
// transmission records, each with its payload buffer, and its reception
// records; its carrier, active-list and scratch arrays; and its grid's
// map, emptied. A transmission still on the air is dropped, as dead's
// simulator drops its pending events when it is recycled too. It must
// come before m's first Attach. dead must be finished for good: the next
// Attach on m rewrites dead's radio records, so nothing dead attached may
// be used again. Attach on dead panics, and so does Transmit from a radio
// of dead's that m has not reused yet. None of it is observable: Attach
// resets a reused record completely, and a reused transmission record is
// rewritten at Transmit.
func (m *Medium) recycle(dead *Medium) {
	switch {
	case dead == m:
		panic("phy: a medium cannot recycle itself")
	case dead.recycled:
		panic("phy: recycling a medium already recycled")
	case len(m.radios) > 0:
		panic("phy: recycle after Attach")
	}
	for _, t := range dead.active {
		for _, rec := range t.rx {
			rec.radio, rec.tx = nil, nil
			dead.recFree = append(dead.recFree, rec)
		}
		t.radio = nil
		dead.freeTx(t)
	}
	for _, t := range dead.txFree {
		t.m = m
	}
	// A spare record loses its medium, so a stale Transmit on it panics,
	// and lets go of its handlers and transmission.
	for _, r := range dead.radios {
		r.m, r.h, r.first, r.tx = nil, nil, handler{}, nil
	}
	m.spare = append(append(dead.spare, dead.radios...), m.spare...)
	m.txFree = append(dead.txFree, m.txFree...)
	m.recFree = append(dead.recFree, m.recFree...)
	m.radios = larger(m.radios, dead.radios)
	m.carrier = larger(m.carrier, dead.carrier)
	m.active = larger(m.active, dead.active)
	m.oldNbr = larger(m.oldNbr, dead.oldNbr)
	m.unionNbr = larger(m.unionNbr, dead.unionNbr)
	if m.grid != nil && dead.grid != nil {
		dead.grid.Reset(m.cutoff)
		m.grid = dead.grid
	}
	*dead = Medium{recycled: true}
}

// larger returns own, empty, or spare, emptied, when its array is larger.
func larger[T any](own, spare []T) []T {
	if cap(spare) > cap(own) {
		return spare[:0]
	}
	return own[:0]
}

// New creates a medium with the given physical parameters and no noise.
func New(s *sim.Simulator, p Params) *Medium {
	m := new(Medium)
	m.init(s, p)
	return m
}

// Reuse builds the medium New(s, p) would in dead's record, taking over
// dead's storage (see recycle), and returns it: the returned medium is
// dead. dead must be finished for good, and the radio records it attached
// lose their medium, so a stale Transmit on one panics. Core's Spares
// builds each network's medium this way, so a component network allocates
// no medium of its own and attaches its radios into the records of the
// component before it.
func Reuse(dead *Medium, s *sim.Simulator, p Params) *Medium {
	if dead.recycled {
		panic("phy: reusing a medium already recycled")
	}
	spare := *dead
	dead.init(s, p)
	dead.recycle(&spare)
	return dead
}

// init makes m a fresh medium on s with params p and no noise, keeping
// only its grid's map, emptied, for the radios it indexes.
func (m *Medium) init(s *sim.Simulator, p Params) {
	*m = Medium{
		s:         s,
		prop:      NewPropagation(p),
		params:    p,
		threshold: p.Threshold(),
		capture:   p.CaptureRatio(),
		noise:     NoNoise{},
		rng:       s.NewRand(),
		grid:      m.grid,
	}
	m.reindex()
}

// SetNoise installs the packet-level noise model.
func (m *Medium) SetNoise(n NoiseModel) {
	if n == nil {
		n = NoNoise{}
	}
	m.noise = n
}

// SetPropagation overrides the propagation model (used by tests and by the
// naive boolean-range model). The neighborhood index is rebuilt for the new
// model's range certificate (or dropped if it has none).
func (m *Medium) SetPropagation(p Propagation) {
	m.prop = p
	m.reindex()
	m.invalidateAllGains()
	m.recomputeCarrier()
}

// SetExhaustive forces the medium onto its exhaustive iteration paths:
// every event walks all radios and all active transmissions, as if the
// neighborhood index did not exist. The negligibility floor stays in force,
// so results are bit-identical to the indexed paths — this is the
// validation reference and the benchmark baseline, not a behaviour switch.
func (m *Medium) SetExhaustive(on bool) { m.exhaustive = on }

// IndexEnabled reports whether per-event work is currently bounded by
// neighborhood size (a Bounded propagation model, a positive negligibility
// floor, and no exhaustive override).
func (m *Medium) IndexEnabled() bool { return m.useIndex() }

// AvgNeighbors reports the mean neighbor-set size (the radio itself
// included). Without an index every radio is everyone's neighbor.
func (m *Medium) AvgNeighbors() float64 {
	if len(m.radios) == 0 {
		return 0
	}
	if !m.indexed {
		return float64(len(m.radios))
	}
	sum := 0
	for _, r := range m.radios {
		sum += len(r.nbr)
	}
	return float64(sum) / float64(len(m.radios))
}

// useIndex reports whether event paths should iterate neighbor sets.
func (m *Medium) useIndex() bool { return m.indexed && !m.exhaustive }

// reindex derives the negligibility floor and cutoff radius from the
// current propagation model and rebuilds the spatial grid and all neighbor
// structures. Called from init and SetPropagation.
func (m *Medium) reindex() {
	m.indexed, m.floor, m.cutoff = false, 0, 0
	if floor, d, ok := indexCutoff(m.prop, m.params); ok {
		m.indexed, m.floor, m.cutoff = true, floor, d
	}
	if m.indexed {
		if m.grid == nil {
			m.grid = geom.NewGrid(m.cutoff)
		} else {
			m.grid.Reset(m.cutoff)
		}
		for _, r := range m.radios {
			m.grid.Insert(int32(r.idx), r.pos)
		}
		for _, r := range m.radios {
			m.rebuildNeighborhood(r)
		}
		for _, r := range m.radios {
			m.rebuildAudible(r)
		}
	} else {
		m.grid = nil
		for _, r := range m.radios {
			r.nbr, r.audible = nil, nil
		}
	}
}

// Params returns the medium's physical parameters.
func (m *Medium) Params() Params { return m.params }

// Counters returns a snapshot of the medium statistics.
func (m *Medium) Counters() Counters { return m.counters }

// Attach adds a radio at pos. The handler may be nil initially and installed
// later with SetHandler, but must be set before any frame can be delivered.
func (m *Medium) Attach(id frame.NodeID, pos geom.Vec3, h Handler) *Radio {
	if m.recycled {
		panic("phy: Attach on a recycled medium")
	}
	var r *Radio
	if k := len(m.spare); k > 0 {
		r = m.spare[k-1]
		m.spare[k-1] = nil
		m.spare = m.spare[:k-1]
	} else {
		r = new(Radio)
	}
	*r = Radio{id: id, pos: pos, m: m, enabled: true, idx: len(m.radios),
		nbr: r.nbr[:0], audible: r.audible[:0], recs: r.recs[:0], gains: r.gains[:0]}
	r.SetHandler(h)
	// Extend the gain cache by one dirty column and one dirty row; existing
	// entries stay valid — attaching a radio moves nobody.
	nan := math.NaN()
	for _, q := range m.radios {
		q.gains = append(q.gains, nan)
	}
	m.radios = append(m.radios, r)
	if n := len(m.radios); cap(r.gains) < n {
		r.gains = make([]float64, n)
	} else {
		r.gains = r.gains[:n]
	}
	for i := range r.gains {
		r.gains[i] = nan
	}
	m.carrier = append(m.carrier, 0)
	if m.indexed {
		m.grid.Insert(int32(r.idx), pos)
		m.rebuildNeighborhood(r)
		for _, q := range r.nbr {
			if q != r {
				insertNbrEntry(q, r)
			}
		}
		m.rebuildAudible(r)
	}
	m.refoldCarrier(r)
	return r
}

// Radios returns the attached radios in attach order.
func (m *Medium) Radios() []*Radio { return m.radios }

// invalidateAllGains marks every pairwise gain as not computed.
func (m *Medium) invalidateAllGains() {
	nan := math.NaN()
	for _, r := range m.radios {
		for k := range r.gains {
			r.gains[k] = nan
		}
	}
}

// invalidateRadioGains marks every gain involving r as not computed.
func (m *Medium) invalidateRadioGains(r *Radio) {
	nan := math.NaN()
	for k := range r.gains {
		r.gains[k] = nan
	}
	for _, q := range m.radios {
		q.gains[r.idx] = nan
	}
}

// gain returns prop.Gain(a.pos, b.pos) through the cache, with values under
// the negligibility floor stored as exactly zero. Directions are cached
// independently: the default models are symmetric, but a custom Propagation
// need not be.
func (m *Medium) gain(a, b *Radio) float64 {
	g := a.gains[b.idx]
	if math.IsNaN(g) {
		g = m.prop.Gain(a.pos, b.pos)
		if m.floor > 0 && g < m.floor {
			g = 0
		}
		a.gains[b.idx] = g
	}
	return g
}

// InRange reports whether a transmission from a would be decodable at b in
// the absence of interference — the paper's simple in-range predicate.
func (m *Medium) InRange(a, b *Radio) bool {
	return m.gain(a, b) >= m.threshold
}

// interferenceAt sums received power at q from every active transmission
// except exclude. The indexed path folds q's audible list — the active
// transmissions whose sources are q's neighbors, in active-list order; the
// skipped transmissions' gains are exactly zero.
func (m *Medium) interferenceAt(q *Radio, exclude *transmission) float64 {
	sum := 0.0
	if m.useIndex() {
		for _, t := range q.audible {
			if t == exclude || t.radio == q {
				continue
			}
			sum += m.gain(t.radio, q)
		}
		return sum
	}
	for _, t := range m.active {
		if t == exclude || t.radio == q {
			continue
		}
		sum += m.gain(t.radio, q)
	}
	return sum
}

// recheckInterference re-evaluates the capture condition for every ongoing
// reception — the exhaustive fallback for media without an index.
func (m *Medium) recheckInterference() {
	for _, t := range m.active {
		for _, rec := range t.rx {
			if rec.corrupted {
				continue
			}
			i := m.interferenceAt(rec.radio, t)
			if i > 0 && rec.power < m.capture*i {
				rec.corrupted = true
			}
		}
	}
}

// recheckReceptionsAt re-evaluates the capture condition for receptions in
// flight at the given radios — the only receptions an event local to their
// neighborhoods can affect.
func (m *Medium) recheckReceptionsAt(rs []*Radio) {
	for _, q := range rs {
		for _, rec := range q.recs {
			if rec.corrupted {
				continue
			}
			i := m.interferenceAt(q, rec.tx)
			if i > 0 && rec.power < m.capture*i {
				rec.corrupted = true
			}
		}
	}
}

// refoldCarrier re-folds one radio's carrier-sense energy from the cached
// gains, in canonical (active-list) order.
func (m *Medium) refoldCarrier(q *Radio) {
	m.carrier[q.idx] = m.interferenceAt(q, nil)
}

// recomputeCarrier re-folds every radio's carrier-sense energy.
func (m *Medium) recomputeCarrier() {
	for _, q := range m.radios {
		m.refoldCarrier(q)
	}
}

// updateCarrierFor recomputes the carrier indication of the given radios
// (which must be in attach/idx order — same-instant notifications fire in
// that order) and schedules notifications for transitions.
func (m *Medium) updateCarrierFor(rs []*Radio) {
	for _, q := range rs {
		busy := q.enabled && (q.tx != nil || m.carrier[q.idx] >= m.threshold)
		if busy == q.carrierBusy {
			continue
		}
		q.carrierBusy = busy
		if q.h != nil {
			// The transition direction is encoded in the function choice
			// so no closure captures it; the handler snapshot rides in
			// the event record.
			call := carrierOffCall
			if busy {
				call = carrierOnCall
			}
			m.s.AtPriorityCall(m.s.Now(), -1, call, q.h, nil)
		}
	}
}

// attachRec creates a reception of tx at q with the given power and links it
// into both the transmission's receiver list and the radio's reception list.
func (m *Medium) attachRec(tx *transmission, q *Radio, p float64) {
	rec := m.allocRec(q, p)
	rec.tx = tx
	rec.pos = len(q.recs)
	q.recs = append(q.recs, rec)
	tx.rx = append(tx.rx, rec)
}

// unlinkRec removes rec from its radio's reception list.
func (m *Medium) unlinkRec(rec *reception) {
	a := rec.radio.recs
	last := len(a) - 1
	a[rec.pos] = a[last]
	a[rec.pos].pos = rec.pos
	a[last] = nil
	rec.radio.recs = a[:last]
}

// startTx begins radiating f from r for its airtime and returns the airtime.
func (m *Medium) startTx(r *Radio, f *frame.Frame) sim.Duration {
	if m.recycled {
		panic("phy: Transmit on a recycled medium")
	}
	air := f.Airtime(m.params.BitrateBPS)
	if r.tx != nil {
		panic(fmt.Sprintf("phy: %v transmitting while already transmitting", r.id))
	}
	if !r.enabled {
		// A powered-off station radiates nothing; the caller's own
		// timers will expire as if the frame were lost.
		return air
	}
	// Half-duplex: any reception in progress at r is lost.
	for _, rec := range r.recs {
		if !rec.corrupted {
			rec.corrupted = true
			m.counters.Aborted++
		}
	}
	tx := m.allocTx()
	m.txSeq++
	tx.radio, tx.f, tx.end, tx.idx, tx.seq = r, *f, m.s.Now()+air, len(m.active), m.txSeq
	// The sender may reuse its payload bytes once Transmit returns. A
	// frame without payload empties the buffer too, so a reused record
	// holds no bytes of an earlier frame.
	tx.payload = append(tx.payload[:0], f.Payload...)
	if f.Payload != nil {
		tx.f.Payload = tx.payload
	}
	r.tx = tx
	m.active = append(m.active, tx)
	m.counters.Transmissions++
	if m.indexed {
		// The newest transmission has the highest seq: appending keeps
		// every neighbor's audible list in active-list order.
		for _, q := range r.nbr {
			q.audible = append(q.audible, tx)
		}
	}
	if m.useIndex() {
		// The new transmission extends each neighbor's carrier fold on the
		// right (including r's own entry, which stays unread while r
		// transmits); non-neighbors would extend by exactly zero.
		for _, q := range r.nbr {
			m.carrier[q.idx] += m.gain(r, q)
		}
		for _, q := range r.nbr {
			if q == r || !q.enabled || q.tx != nil {
				continue
			}
			p := m.gain(r, q)
			if p < m.threshold {
				continue
			}
			m.attachRec(tx, q, p)
		}
		// The new transmission changes interference only within r's
		// neighborhood: evaluate the capture condition for receptions
		// there (old and new alike).
		m.recheckReceptionsAt(r.nbr)
		m.updateCarrierFor(r.nbr)
	} else {
		for _, q := range m.radios {
			m.carrier[q.idx] += m.gain(r, q)
		}
		// New receptions at every enabled, non-transmitting radio in range.
		for _, q := range m.radios {
			if q == r || !q.enabled || q.tx != nil {
				continue
			}
			p := m.gain(r, q)
			if p < m.threshold {
				continue
			}
			m.attachRec(tx, q, p)
		}
		// When this is the only transmission on the air and nobody is in
		// range, there are no receptions to re-evaluate and the recheck is
		// skipped outright.
		if len(tx.rx) > 0 || len(m.active) > 1 {
			m.recheckInterference()
		}
		m.updateCarrierFor(m.radios)
	}
	// Priority -2: the end of a transmission (and the deliveries it
	// spawns at priority -1) must precede any same-instant MAC timer, or
	// a station whose contention slot lands exactly at a frame boundary
	// would transmit without having "heard" the frame that just ended.
	m.s.AtPriorityCall(tx.end, -2, endTxCall, m, tx)
	return air
}

// endTx completes a transmission, delivering clean receptions.
func (m *Medium) endTx(tx *transmission) {
	// Index-based removal: shift the tail down one slot, keeping relative
	// order (and therefore summation order) intact.
	i := tx.idx
	copy(m.active[i:], m.active[i+1:])
	m.active[len(m.active)-1] = nil
	m.active = m.active[:len(m.active)-1]
	for ; i < len(m.active); i++ {
		m.active[i].idx = i
	}
	src := tx.radio
	src.tx = nil
	if m.indexed {
		for _, q := range src.nbr {
			removeAudible(q, tx)
		}
	}
	if m.useIndex() {
		// Only the neighbors' folds contained tx's term; everyone else's
		// carrier is unchanged.
		for _, q := range src.nbr {
			m.refoldCarrier(q)
		}
	} else {
		m.recomputeCarrier()
	}
	for _, rec := range tx.rx {
		switch {
		case rec.corrupted:
			m.counters.Corrupted++
			m.notifyCorrupted(rec.radio, tx)
		case !rec.radio.enabled:
			m.counters.Aborted++
		case m.noise.Corrupts(m.rng, rec.radio, &tx.f):
			m.counters.NoiseDropped++
			m.notifyCorrupted(rec.radio, tx)
		default:
			m.counters.Delivered++
			if rec.radio.h != nil {
				m.s.AtPriorityCall(m.s.Now(), -1, receiveCall, rec.radio.h, tx)
				tx.pending++
			}
		}
	}
	// The scheduled notifications captured handler and transmission, never
	// the receptions, so those are recycled immediately; the transmission
	// waits for its notifications (see notified).
	for i, rec := range tx.rx {
		m.unlinkRec(rec)
		rec.radio, rec.tx = nil, nil
		tx.rx[i] = nil
		m.recFree = append(m.recFree, rec)
	}
	tx.rx = tx.rx[:0]
	tx.radio = nil
	if tx.pending == 0 {
		m.freeTx(tx)
	}
	if m.useIndex() {
		m.updateCarrierFor(src.nbr)
	} else {
		m.updateCarrierFor(m.radios)
	}
}

func (m *Medium) notifyCorrupted(q *Radio, tx *transmission) {
	if q.h == nil || q.h.obs == nil || tx.f.Dst != q.id {
		return
	}
	m.s.AtPriorityCall(m.s.Now(), -1, corruptedCall, q.h, tx)
	tx.pending++
}

// rebuildNeighborhood recomputes r.nbr (r itself included) from the grid,
// sorted by radio idx — the canonical attach order every multi-radio
// iteration follows.
func (m *Medium) rebuildNeighborhood(r *Radio) {
	r.nbr = r.nbr[:0]
	m.grid.ForEachWithin(r.pos, m.cutoff, func(id int32) {
		q := m.radios[id]
		if q.pos.Dist(r.pos) <= m.cutoff {
			r.nbr = append(r.nbr, q)
		}
	})
	sortRadiosByIdx(r.nbr)
}

// rebuildAudible recomputes r's audible list from its neighbors' current
// transmissions, in active-list (seq) order.
func (m *Medium) rebuildAudible(r *Radio) {
	r.audible = r.audible[:0]
	for _, q := range r.nbr {
		if q.tx != nil {
			insertAudible(r, q.tx)
		}
	}
}

// unionOf merges two idx-sorted radio sets into the union scratch.
func (m *Medium) unionOf(a, b []*Radio) []*Radio {
	m.unionNbr = m.unionNbr[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			m.unionNbr = append(m.unionNbr, a[i])
			i++
			j++
		case a[i].idx < b[j].idx:
			m.unionNbr = append(m.unionNbr, a[i])
			i++
		default:
			m.unionNbr = append(m.unionNbr, b[j])
			j++
		}
	}
	m.unionNbr = append(m.unionNbr, a[i:]...)
	m.unionNbr = append(m.unionNbr, b[j:]...)
	return m.unionNbr
}

// sortRadiosByIdx insertion-sorts a small radio set by idx.
func sortRadiosByIdx(rs []*Radio) {
	for i := 1; i < len(rs); i++ {
		r := rs[i]
		j := i - 1
		for ; j >= 0 && rs[j].idx > r.idx; j-- {
			rs[j+1] = rs[j]
		}
		rs[j+1] = r
	}
}

// insertNbrEntry adds r to q's neighbor set, keeping idx order.
func insertNbrEntry(q, r *Radio) {
	a := append(q.nbr, nil)
	i := len(a) - 2
	for ; i >= 0 && a[i].idx > r.idx; i-- {
		a[i+1] = a[i]
	}
	a[i+1] = r
	q.nbr = a
}

// removeNbrEntry removes r from q's neighbor set, keeping order.
func removeNbrEntry(q, r *Radio) {
	a := q.nbr
	for i, x := range a {
		if x == r {
			copy(a[i:], a[i+1:])
			a[len(a)-1] = nil
			q.nbr = a[:len(a)-1]
			return
		}
	}
	panic("phy: neighbor entry missing")
}

// insertAudible adds tx to q's audible list, keeping seq (active-list)
// order — a transmitter carried into a new neighborhood mid-packet must
// take its original summation position.
func insertAudible(q *Radio, tx *transmission) {
	a := append(q.audible, nil)
	i := len(a) - 2
	for ; i >= 0 && a[i].seq > tx.seq; i-- {
		a[i+1] = a[i]
	}
	a[i+1] = tx
	q.audible = a
}

// removeAudible removes tx from q's audible list, keeping order.
func removeAudible(q *Radio, tx *transmission) {
	a := q.audible
	for i, x := range a {
		if x == tx {
			copy(a[i:], a[i+1:])
			a[len(a)-1] = nil
			q.audible = a[:len(a)-1]
			return
		}
	}
	panic("phy: audible entry missing")
}

// Radio is one station's attachment to the medium.
type Radio struct {
	id  frame.NodeID
	pos geom.Vec3
	m   *Medium
	h   *handler
	// first is the record of the radio's first handler, which h points to
	// until a later SetHandler. It keeps that handler for the radio's life,
	// as notifications scheduled for it may still be pending: a restarted
	// station's first engine, halted, stays reachable until Attach reuses
	// the record.
	first       handler
	tx          *transmission
	enabled     bool
	carrierBusy bool
	// idx is the radio's position in Medium.radios, the key into the
	// medium's carrier cache and into every radio's gains row.
	idx int
	// nbr is the idx-sorted set of radios within the medium's cutoff
	// radius, this radio included; nil when the index is disabled.
	nbr []*Radio
	// audible is the seq-sorted list of active transmissions whose sources
	// are in nbr — exactly the transmissions whose gain here can be
	// nonzero; nil when the index is disabled.
	audible []*transmission
	// recs is the list of receptions in flight at this radio (maintained
	// in both indexed and exhaustive modes).
	recs []*reception
	// gains is this radio's row of the dense pairwise gain cache, indexed
	// by the other radio's idx (NaN = not yet computed): gains[b.idx] is
	// exactly prop.Gain(r.pos, b.pos) with the negligibility floor
	// applied, so cached and fresh computations are interchangeable. The
	// row travels with the record when Reuse hands it on.
	gains []float64
}

// ID returns the radio's station identifier.
func (r *Radio) ID() frame.NodeID { return r.id }

// Pos returns the radio's current position.
func (r *Radio) Pos() geom.Vec3 { return r.pos }

// SetHandler installs the upper-layer handler. The first is recorded in
// the radio record, each later one in a record of its own, since
// notifications scheduled for the one before may still be pending.
func (r *Radio) SetHandler(h Handler) {
	switch {
	case h == nil:
		r.h = nil
	case r.first.Handler == nil:
		r.first = handlerOf(h)
		r.h = &r.first
	default:
		hr := handlerOf(h)
		r.h = &hr
	}
}

// SetPos moves the radio (mobility). Powers of receptions already in flight
// keep their start-of-packet snapshot; the move affects subsequent
// transmissions and the carrier indication. Only the moved radio's
// neighborhood state is invalidated: gains touching it in its old or new
// neighborhood go dirty, its grid bucket moves, and the neighbor sets of
// radios entering or leaving its cutoff are updated in place. Radios beyond
// both neighborhoods keep gains that are (provably) zero both before and
// after, so nothing of theirs needs touching.
func (r *Radio) SetPos(p geom.Vec3) {
	m := r.m
	if !m.indexed {
		r.pos = p
		m.invalidateRadioGains(r)
		m.recomputeCarrier()
		m.recheckInterference()
		m.updateCarrierFor(m.radios)
		return
	}
	old := r.pos
	m.oldNbr = append(m.oldNbr[:0], r.nbr...)
	// Detach from the old neighborhood.
	for _, q := range m.oldNbr {
		if q == r {
			continue
		}
		removeNbrEntry(q, r)
		if r.tx != nil {
			removeAudible(q, r.tx)
		}
	}
	r.pos = p
	m.grid.Move(int32(r.idx), old, p)
	m.rebuildNeighborhood(r)
	// Attach to the new neighborhood.
	for _, q := range r.nbr {
		if q == r {
			continue
		}
		insertNbrEntry(q, r)
		if r.tx != nil {
			insertAudible(q, r.tx)
		}
	}
	m.rebuildAudible(r)
	// Gains touching r in either neighborhood are dirty; pairs beyond both
	// cutoffs were stored as exact zeros and remain exact zeros.
	nan := math.NaN()
	for _, q := range m.oldNbr {
		r.gains[q.idx] = nan
		q.gains[r.idx] = nan
	}
	for _, q := range r.nbr {
		r.gains[q.idx] = nan
		q.gains[r.idx] = nan
	}
	if m.useIndex() {
		if r.tx != nil {
			// r is radiating: interference changes across both its old
			// and new neighborhoods.
			union := m.unionOf(m.oldNbr, r.nbr)
			for _, q := range union {
				m.refoldCarrier(q)
			}
			m.recheckReceptionsAt(union)
			m.updateCarrierFor(union)
		} else {
			// A silent radio's move changes only what *it* hears.
			m.single[0] = r
			m.refoldCarrier(r)
			m.recheckReceptionsAt(m.single[:])
			m.updateCarrierFor(m.single[:])
		}
		return
	}
	m.recomputeCarrier()
	m.recheckInterference()
	m.updateCarrierFor(m.radios)
}

// Enabled reports whether the radio is powered.
func (r *Radio) Enabled() bool { return r.enabled }

// SetEnabled powers the radio on or off. Powering off destroys receptions
// in progress at this radio and makes it inaudible and deaf until re-enabled.
func (r *Radio) SetEnabled(on bool) {
	if r.enabled == on {
		return
	}
	r.enabled = on
	if !on {
		for _, rec := range r.recs {
			if !rec.corrupted {
				rec.corrupted = true
				r.m.counters.Aborted++
			}
		}
		r.carrierBusy = false
	}
	// Nobody else's carrier energy or state changed.
	r.m.single[0] = r
	r.m.updateCarrierFor(r.m.single[:])
}

// Transmitting reports whether the radio is currently radiating.
func (r *Radio) Transmitting() bool { return r.tx != nil }

// CarrierBusy reports the current carrier-sense indication.
func (r *Radio) CarrierBusy() bool { return r.carrierBusy }

// Transmit radiates f and returns its airtime. The medium copies *f, so the
// caller may reuse its frame as soon as Transmit returns. The caller is
// responsible for scheduling its own end-of-transmission continuation
// (typically sim.After(airtime, ...)). Transmitting while already
// transmitting panics: it is a MAC-layer bug.
func (r *Radio) Transmit(f *frame.Frame) sim.Duration {
	if f.Src != r.id {
		panic(fmt.Sprintf("phy: frame src %v transmitted by %v", f.Src, r.id))
	}
	return r.m.startTx(r, f)
}

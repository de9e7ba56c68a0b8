// Package trace provides structured packet-level tracing for simulation
// runs: every clean reception (including overhears), every corrupted
// reception at an intended destination, and every carrier transition can be
// recorded per station and rendered as text or JSON, or replayed through
// filters in tests.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"macaw/internal/core"
	"macaw/internal/frame"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

// Kind classifies a trace event.
type Kind string

// Event kinds.
const (
	// Receive is a cleanly received frame (including overhears).
	Receive Kind = "rx"
	// Corrupt is a reception destroyed by collision or noise, reported
	// only at the frame's intended destination.
	Corrupt Kind = "lost"
	// Carrier is a carrier-sense transition.
	Carrier Kind = "carrier"
	// Transmit is a frame radiated by a station. The radio has no transmit
	// tap; these events come from MAC-internal observers (the conformance
	// oracle), not from Recorder wrappers.
	Transmit Kind = "tx"
	// Mark is an annotated MAC-internal event (state transition, timer
	// arm, queue operation, delivery) recorded by a mac.Observer; the
	// detail lives in Note.
	Mark Kind = "mark"
	// State is a typed FSM transition (From/To carry the state names).
	State Kind = "state"
	// Timer is a state-timer operation: Op "arm" with Deadline, or Op
	// "cancel".
	Timer Kind = "timer"
	// Queue is a queue operation (Op "push"/"pop"/"drop" toward Dst, QLen
	// the length after it).
	Queue Kind = "queue"
	// Retry is a failed attempt toward Dst being retried.
	Retry Kind = "retry"
	// Drop is a packet toward Dst being abandoned; Note carries the reason.
	Drop Kind = "drop"
	// Deliver is a DATA frame handed up to transport.
	Deliver Kind = "deliver"
)

// Event is one recorded occurrence. The typed fields beyond Note (From/To,
// Op, QLen, Deadline, Backoff, Run) carry what Mark events used to fold into
// free text, so JSONL consumers can filter and aggregate without parsing.
type Event struct {
	At      sim.Time     `json:"at"`
	Station string       `json:"station"`
	Kind    Kind         `json:"kind"`
	Type    frame.Type   `json:"type,omitempty"`
	Src     frame.NodeID `json:"src,omitempty"`
	Dst     frame.NodeID `json:"dst,omitempty"`
	Seq     uint32       `json:"seq,omitempty"`
	Busy    bool         `json:"busy,omitempty"`
	Note    string       `json:"note,omitempty"`
	// From/To are the FSM state names of a State event.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Op is the operation of a Timer ("arm"/"cancel") or Queue
	// ("push"/"pop"/"drop") event.
	Op string `json:"op,omitempty"`
	// QLen is the queue length after a Queue operation.
	QLen int `json:"qlen,omitempty"`
	// Deadline is the firing time a Timer arm targets.
	Deadline sim.Time `json:"deadline,omitempty"`
	// Backoff is the transmitted frame's local backoff header on a
	// Transmit event (frame.IDontKnow when the sender did not stamp one).
	Backoff int16 `json:"backoff,omitempty"`
	// Run labels which simulation run the event belongs to in a multi-run
	// JSONL stream (stamped by JSONLSink).
	Run string `json:"run,omitempty"`
}

// String renders the event as one trace line.
func (e Event) String() string {
	switch e.Kind {
	case Carrier:
		return fmt.Sprintf("%12.6f  %-4s carrier busy=%v", e.At.Seconds(), e.Station, e.Busy)
	case Corrupt:
		return fmt.Sprintf("%12.6f  %-4s LOST %s %v->%v seq=%d", e.At.Seconds(), e.Station, e.Type, e.Src, e.Dst, e.Seq)
	case Transmit:
		return fmt.Sprintf("%12.6f  %-4s tx   %s %v->%v seq=%d", e.At.Seconds(), e.Station, e.Type, e.Src, e.Dst, e.Seq)
	case Mark:
		return fmt.Sprintf("%12.6f  %-4s %s", e.At.Seconds(), e.Station, e.Note)
	case State:
		return fmt.Sprintf("%12.6f  %-4s %s -> %s", e.At.Seconds(), e.Station, e.From, e.To)
	case Timer:
		if e.Op == "cancel" {
			return fmt.Sprintf("%12.6f  %-4s timer cancel", e.At.Seconds(), e.Station)
		}
		return fmt.Sprintf("%12.6f  %-4s timer arm @%.6f", e.At.Seconds(), e.Station, e.Deadline.Seconds())
	case Queue:
		return fmt.Sprintf("%12.6f  %-4s queue %s dst=%v len=%d", e.At.Seconds(), e.Station, e.Op, e.Dst, e.QLen)
	case Retry:
		return fmt.Sprintf("%12.6f  %-4s retry dst=%v", e.At.Seconds(), e.Station, e.Dst)
	case Drop:
		return fmt.Sprintf("%12.6f  %-4s drop dst=%v (%s)", e.At.Seconds(), e.Station, e.Dst, e.Note)
	case Deliver:
		return fmt.Sprintf("%12.6f  %-4s dlvr %s %v->%v seq=%d", e.At.Seconds(), e.Station, e.Type, e.Src, e.Dst, e.Seq)
	default:
		return fmt.Sprintf("%12.6f  %-4s rx   %s %v->%v seq=%d", e.At.Seconds(), e.Station, e.Type, e.Src, e.Dst, e.Seq)
	}
}

// Recorder collects events from any number of stations.
type Recorder struct {
	s *sim.Simulator
	// From/To bound the recording window; a zero To means unbounded.
	From, To sim.Time
	// Carrier enables carrier-transition events (noisy; off by default).
	Carrier bool
	events  []Event
	// Sink, if non-nil, receives each event line as it is recorded.
	Sink io.Writer
	// Max, when positive, bounds the recorded slice: events beyond it are
	// counted in dropped instead of retained, so a long instrumented run
	// cannot grow an unbounded trace.
	Max int
	// OmitBridgeRx suppresses Receive events from MAC-observer bridges
	// (MACObserver); set it when the recorder is also attached as a radio
	// wrapper (Attach/AttachAll), which records receptions already.
	OmitBridgeRx bool
	dropped      int
}

// NewRecorder returns a recorder bound to the simulator clock.
func NewRecorder(s *sim.Simulator) *Recorder { return &Recorder{s: s} }

// Events returns the recorded events in order.
func (r *Recorder) Events() []Event { return r.events }

// Filter returns the recorded events matching keep.
func (r *Recorder) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range r.events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many recorded events match keep.
func (r *Recorder) Count(keep func(Event) bool) int { return len(r.Filter(keep)) }

// WriteJSON writes the recorded events as a JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.events)
}

// WriteText writes the recorded events as one line each.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, e := range r.events {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Record appends e to the trace, honouring the From/To window and the Max
// cap. It is the single entry point for both the radio wrappers and
// the MAC-observer bridges.
func (r *Recorder) Record(e Event) {
	if r.s.Now() < r.From || (r.To > 0 && r.s.Now() >= r.To) {
		return
	}
	if r.Max > 0 && len(r.events) >= r.Max {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
	if r.Sink != nil {
		fmt.Fprintln(r.Sink, e)
	}
}

// Dropped reports how many in-window events the Max cap discarded.
func (r *Recorder) Dropped() int { return r.dropped }

// Attach interposes the recorder between a station's radio and its MAC. It
// must be called after the station's protocol is constructed (the factory
// installs the MAC as the radio handler).
func (r *Recorder) Attach(st *core.Station) {
	w := &wrapper{rec: r, name: st.Name(), inner: st.MAC()}
	st.Radio().SetHandler(w)
}

// AttachAll attaches the recorder to every station of the network.
func (r *Recorder) AttachAll(n *core.Network) {
	for _, st := range n.Stations() {
		r.Attach(st)
	}
}

// wrapper forwards physical-layer indications, recording them.
type wrapper struct {
	rec   *Recorder
	name  string
	inner phy.Handler
}

func (w *wrapper) RadioReceive(f *frame.Frame) {
	w.rec.Record(Event{At: w.rec.s.Now(), Station: w.name, Kind: Receive,
		Type: f.Type, Src: f.Src, Dst: f.Dst, Seq: f.Seq})
	w.inner.RadioReceive(f)
}

func (w *wrapper) RadioCarrier(busy bool) {
	if w.rec.Carrier {
		w.rec.Record(Event{At: w.rec.s.Now(), Station: w.name, Kind: Carrier, Busy: busy})
	}
	w.inner.RadioCarrier(busy)
}

func (w *wrapper) RadioCorrupted(f *frame.Frame) {
	w.rec.Record(Event{At: w.rec.s.Now(), Station: w.name, Kind: Corrupt,
		Type: f.Type, Src: f.Src, Dst: f.Dst, Seq: f.Seq})
	if obs, ok := w.inner.(phy.CorruptionObserver); ok {
		obs.RadioCorrupted(f)
	}
}

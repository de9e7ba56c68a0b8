package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"macaw/internal/mac"
)

// The metrics document is written without reflection, by a docWriter, in
// the two forms the repository emits: compact, as json.Marshal writes it
// (a campaign result line's documents), and indented, as an encoding/json
// Encoder indenting by two spaces writes a run inside {"runs": {…}}
// (Sink.WriteJSON). Both forms escape HTML characters in strings, as
// encoding/json does by default, and both are byte for byte what
// encoding/json writes for the same values, failures included: NaN and the
// infinities are refused with the errors encoding/json returns
// (TestMarshalersMatchEncodingJSON).

// runIndent is the prefix of every line of a run's indented text after its
// first: the run sits two levels deep in the {"runs": {…}} document.
const runIndent = "    "

// docWriter appends one document's JSON to b. In the indented form every
// member and element starts a line of its own, runIndent and two spaces a
// level deep. The first failure sticks in err; what b holds after it is
// meant to be thrown away.
type docWriter struct {
	b      []byte
	indent bool
	depth  int
	err    error
	// keys is a stack of the map keys being written, sorted per map, kept
	// so that nested maps share one slice.
	keys []string
}

// newline starts a new line in the indented form; the compact form has
// none.
func (w *docWriter) newline() {
	if !w.indent {
		return
	}
	w.b = append(w.b, '\n')
	w.b = append(w.b, runIndent...)
	for range w.depth {
		w.b = append(w.b, "  "...)
	}
}

// open starts an object or array.
func (w *docWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
}

// close ends an object or array; an empty one closes on its opening line.
func (w *docWriter) close(c byte, empty bool) {
	w.depth--
	if !empty {
		w.newline()
	}
	w.b = append(w.b, c)
}

// next separates an element from the one before it.
func (w *docWriter) next(first bool) {
	if !first {
		w.b = append(w.b, ',')
	}
	w.newline()
}

// colon ends a member's name.
func (w *docWriter) colon() {
	w.b = append(w.b, ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

// field starts a struct member; quoted is its name in quotes.
func (w *docWriter) field(first bool, quoted string) {
	w.next(first)
	w.b = append(w.b, quoted...)
	w.colon()
}

func (w *docWriter) null()         { w.b = append(w.b, "null"...) }
func (w *docWriter) int(v int64)   { w.b = strconv.AppendInt(w.b, v, 10) }
func (w *docWriter) uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }

func (w *docWriter) float(v float64) {
	b, err := appendFloat(w.b, v)
	if err != nil {
		w.fail(err)
		return
	}
	w.b = b
}

// fail records err unless an earlier failure stuck.
func (w *docWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// writeMap writes m as an object sorted by key, as encoding/json writes a
// map, each value by val.
func writeMap[V any](w *docWriter, m map[string]V, val func(V)) {
	if m == nil {
		w.null()
		return
	}
	mark := len(w.keys)
	for k := range m {
		w.keys = append(w.keys, k)
	}
	keys := w.keys[mark:]
	slices.Sort(keys)
	w.open('{')
	for i, k := range keys {
		w.next(i == 0)
		w.b = AppendJSONString(w.b, k, true)
		w.colon()
		val(m[k])
	}
	w.close('}', len(keys) == 0)
	clear(keys)
	w.keys = w.keys[:mark]
}

// floats writes v as encoding/json writes a []float64.
func (w *docWriter) floats(v []float64) {
	if v == nil {
		w.null()
		return
	}
	w.open('[')
	for i, f := range v {
		w.next(i == 0)
		w.float(f)
	}
	w.close(']', len(v) == 0)
}

// ints writes v as encoding/json writes a []int64.
func (w *docWriter) ints(v []int64) {
	if v == nil {
		w.null()
		return
	}
	w.open('[')
	for i, n := range v {
		w.next(i == 0)
		w.int(n)
	}
	w.close(']', len(v) == 0)
}

func (w *docWriter) run(rm *RunMetrics) {
	if rm == nil {
		w.null()
		return
	}
	w.open('{')
	w.field(true, `"seed"`)
	w.int(rm.Seed)
	w.field(false, `"total_s"`)
	w.float(rm.TotalS)
	w.field(false, `"warmup_s"`)
	w.float(rm.WarmupS)
	w.field(false, `"engine"`)
	w.open('{')
	w.field(true, `"events_fired"`)
	w.uint(rm.Engine.EventsFired)
	w.field(false, `"max_event_queue"`)
	w.int(int64(rm.Engine.MaxEventQueue))
	w.close('}', false)
	w.field(false, `"stations"`)
	writeMap(w, rm.Stations, w.station)
	w.field(false, `"streams"`)
	writeMap(w, rm.Streams, w.stream)
	w.close('}', false)
}

// station writes sm: the embedded registry's non-empty instrument maps,
// the residency map when non-empty, and the MAC's counters.
func (w *docWriter) station(sm *StationMetrics) {
	if sm == nil {
		w.null()
		return
	}
	w.open('{')
	first := true
	if r := sm.Registry; r != nil {
		if len(r.Counters) > 0 {
			w.field(first, `"counters"`)
			writeMap(w, r.Counters, w.counter)
			first = false
		}
		if len(r.Gauges) > 0 {
			w.field(first, `"gauges"`)
			writeMap(w, r.Gauges, w.gauge)
			first = false
		}
		if len(r.Histograms) > 0 {
			w.field(first, `"histograms"`)
			writeMap(w, r.Histograms, w.histogram)
			first = false
		}
		if len(r.Series) > 0 {
			w.field(first, `"series"`)
			writeMap(w, r.Series, w.seriesValue)
			first = false
		}
	}
	if len(sm.FSMResidencyS) > 0 {
		w.field(first, `"fsm_residency_s"`)
		writeMap(w, sm.FSMResidencyS, w.float)
		first = false
	}
	w.field(first, `"mac_stats"`)
	w.macStats(&sm.MACStats)
	w.close('}', false)
}

// macStats writes s under its Go field names, as mac.Stats has no tags.
func (w *docWriter) macStats(s *mac.Stats) {
	w.open('{')
	for i, f := range [...]struct {
		quoted string
		n      int
	}{
		{`"DataSent"`, s.DataSent}, {`"DataReceived"`, s.DataReceived},
		{`"RTSSent"`, s.RTSSent}, {`"Retries"`, s.Retries}, {`"Drops"`, s.Drops},
		{`"CTSSent"`, s.CTSSent}, {`"DSSent"`, s.DSSent}, {`"ACKSent"`, s.ACKSent},
		{`"RRTSSent"`, s.RRTSSent},
	} {
		w.field(i == 0, f.quoted)
		w.int(int64(f.n))
	}
	w.close('}', false)
}

func (w *docWriter) counter(c *Counter) {
	if c == nil {
		w.null()
		return
	}
	w.int(c.N)
}

func (w *docWriter) gauge(g *Gauge) {
	if g == nil {
		w.null()
		return
	}
	w.open('{')
	w.field(true, `"last"`)
	w.float(g.Last)
	w.field(false, `"min"`)
	w.float(g.Min)
	w.field(false, `"max"`)
	w.float(g.Max)
	w.field(false, `"n"`)
	w.int(g.N)
	w.close('}', false)
}

func (w *docWriter) histogram(h *Histogram) {
	if h == nil {
		w.null()
		return
	}
	w.open('{')
	w.field(true, `"bounds"`)
	w.floats(h.Bounds)
	w.field(false, `"counts"`)
	w.ints(h.Counts)
	w.field(false, `"count"`)
	w.int(h.Count)
	w.field(false, `"sum"`)
	w.float(h.Sum)
	w.field(false, `"min"`)
	w.float(h.Min)
	w.field(false, `"max"`)
	w.float(h.Max)
	w.close('}', false)
}

// seriesValue writes s as encoding/json writes a *Series through its
// MarshalJSON: a failure comes wrapped in the *json.MarshalerError that
// encoding/json returns for it.
func (w *docWriter) seriesValue(s *Series) {
	if s == nil {
		w.null()
		return
	}
	failed := w.err != nil
	w.series(s)
	if !failed && w.err != nil {
		w.err = &json.MarshalerError{Type: reflect.TypeFor[*Series](), Err: w.err}
	}
}

// series writes s as {"stride", "seen", "points"}, each point a
// [seconds, value] pair.
func (w *docWriter) series(s *Series) {
	w.open('{')
	w.field(true, `"stride"`)
	w.int(s.stride)
	w.field(false, `"seen"`)
	w.int(s.seen)
	w.field(false, `"points"`)
	w.open('[')
	for i, p := range s.pts {
		w.next(i == 0)
		w.open('[')
		w.next(true)
		w.float(p.T.Seconds())
		w.next(false)
		w.float(p.V)
		w.close(']', false)
	}
	w.close(']', len(s.pts) == 0)
	w.close('}', false)
}

func (w *docWriter) stream(sm *StreamMetrics) {
	if sm == nil {
		w.null()
		return
	}
	w.open('{')
	w.field(true, `"transport"`)
	w.b = AppendJSONString(w.b, sm.Transport, true)
	w.field(false, `"rate_pps"`)
	w.float(sm.RatePPS)
	w.field(false, `"pps"`)
	w.float(sm.PPS)
	w.field(false, `"offered"`)
	w.int(int64(sm.Offered))
	w.field(false, `"delivered"`)
	w.int(int64(sm.Delivered))
	w.field(false, `"mean_delay_s"`)
	w.float(sm.MeanDelayS)
	w.field(false, `"p95_delay_s"`)
	w.float(sm.P95DelayS)
	w.field(false, `"delay_s"`)
	w.histogram(sm.Delay)
	w.close('}', false)
}

// AppendJSON appends rm's compact JSON document to b, byte for byte what
// json.Marshal writes for it, and returns the extended buffer. It refuses
// NaN and the infinities with json.Marshal's error.
func (rm *RunMetrics) AppendJSON(b []byte) ([]byte, error) {
	w := docWriter{b: b}
	w.run(rm)
	return w.b, w.err
}

// AppendJSONString appends s as a quoted JSON string, byte for byte as
// encoding/json writes it: quotes, backslashes and control characters
// escaped, bytes that are not UTF-8 replaced by \ufffd, and U+2028 and
// U+2029 escaped. With escapeHTML, '<', '>' and '&' are escaped too, as
// json.Marshal escapes them and an Encoder after SetEscapeHTML(false) does
// not.
func AppendJSONString(b []byte, s string, escapeHTML bool) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && (!escapeHTML || (c != '<' && c != '>' && c != '&')) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// appendFloat appends v as encoding/json formats a float64: shortest
// round-trip digits, in exponent form below 1e-6 and from 1e21 up with a
// one-digit exponent left unpadded. NaN and the infinities have no JSON
// form.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

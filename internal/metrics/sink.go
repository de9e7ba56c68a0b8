package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Sink aggregates the RunMetrics of many runs into one JSON document, keyed
// by a deterministic run label assigned at submission time (e.g.
// "table2/MILD copy"). Labels are stated by the generator code, not by
// completion order, and the JSON encoder sorts map keys, so the document is
// byte-identical at any -jobs value. Add is safe for concurrent use.
type Sink struct {
	mu   sync.Mutex
	runs map[string]*RunMetrics
}

// NewSink returns an empty sink.
func NewSink() *Sink { return &Sink{runs: make(map[string]*RunMetrics)} }

// Add stores one run's snapshot under its label.
func (s *Sink) Add(label string, rm *RunMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs[label] = rm
}

// Len reports the number of stored runs.
func (s *Sink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Run returns the snapshot stored under label, or nil.
func (s *Sink) Run(label string) *RunMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[label]
}

// Labels returns the stored run labels in sorted order — the same canonical
// order the JSON document uses, so callers enumerating runs see the
// submission-order-independent view the sink's determinism contract names
// (the trace sink's WriteJSONL sorts identically).
func (s *Sink) Labels() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.runs))
	for l := range s.runs {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// WriteJSON writes every stored run as one indented JSON document:
// {"runs": {label: RunMetrics, ...}} (see WriteRuns).
func (s *Sink) WriteJSON(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return WriteRuns(w, s.runs)
}

// WriteRuns writes runs as the document {"runs": {label: run, ...}},
// byte for byte as an encoding/json Encoder indenting by two spaces
// writes it: labels sorted, HTML characters escaped, a json.RawMessage
// compacted. It writes one run at a time, each indented into one reused
// buffer, so the document costs its largest run's bytes, not its whole
// size over again; the buffer and its encoder are kept for later calls
// (see spareSection). A run that fails to marshal ends the document there:
// w holds the runs before it.
func WriteRuns[V any](w io.Writer, runs map[string]V) error {
	if runs == nil {
		_, err := io.WriteString(w, "{\n  \"runs\": null\n}\n")
		return err
	}
	if len(runs) == 0 {
		_, err := io.WriteString(w, "{\n  \"runs\": {}\n}\n")
		return err
	}
	sec := takeSection()
	defer putSection(sec)
	buf := &sec.buf
	buf.WriteString("{\n  \"runs\": {\n")
	labels := make([]string, 0, len(runs))
	for l := range runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for i, label := range labels {
		buf.WriteString("    ")
		if err := sec.encode(label); err != nil {
			return err
		}
		buf.WriteString(": ")
		if err := sec.encode(runs[label]); err != nil {
			return err
		}
		if i < len(labels)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		buf.Reset()
	}
	_, err := io.WriteString(w, "  }\n}\n")
	return err
}

// section is WriteRuns's buffer for one run's text and the encoder that
// indents into it, whose own indenting buffer it keeps between calls.
type section struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// spareSection keeps one section between WriteRuns calls, grown to the
// largest run it has written, so the next document reuses its storage. It
// is not a sync.Pool: a pool is emptied by the collections that writing
// one document's worth of runs sets off.
var spareSection struct {
	sync.Mutex
	sec *section
}

// takeSection returns the spare section, or a new one when another
// WriteRuns holds it.
func takeSection() *section {
	spareSection.Lock()
	sec := spareSection.sec
	spareSection.sec = nil
	spareSection.Unlock()
	if sec == nil {
		sec = new(section)
		sec.enc = json.NewEncoder(&sec.buf)
		sec.enc.SetIndent("    ", "  ")
	}
	return sec
}

// putSection empties sec and keeps it as the spare.
func putSection(sec *section) {
	sec.buf.Reset()
	spareSection.Lock()
	spareSection.sec = sec
	spareSection.Unlock()
}

// encode appends v's indented text to the buffer without Encode's newline.
func (sec *section) encode(v any) error {
	if err := sec.enc.Encode(v); err != nil {
		return err
	}
	sec.buf.Truncate(sec.buf.Len() - 1)
	return nil
}

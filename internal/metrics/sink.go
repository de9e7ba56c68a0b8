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
// completion order, and every map is written in key order, so the document
// is byte-identical at any -jobs value. Add is safe for concurrent use.
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

// WriteJSON writes every stored run as one indented JSON document,
// {"runs": {label: RunMetrics, ...}}, byte for byte as an encoding/json
// Encoder indenting by two spaces writes it: labels sorted, HTML characters
// escaped. Each run is written by the package's own encoder (see
// docWriter) into one buffer, reused for every run and kept for later
// calls (see spareWriter), so the document costs its largest run's bytes,
// not its whole size over again. A run that fails to encode ends the
// document there: w holds the runs before it.
func (s *Sink) WriteJSON(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dw := takeWriter()
	defer putWriter(dw)
	return writeRuns(w, s.runs, dw, dw.run)
}

// WriteRuns writes per-run documents held as raw JSON, as a campaign's
// result lines hold them, as the document WriteJSON writes for the runs
// they encode: each is compacted, HTML-escaped and indented as an
// encoding/json Encoder writes a json.RawMessage.
func WriteRuns(w io.Writer, runs map[string]json.RawMessage) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent(runIndent, "  ")
	dw := new(docWriter)
	return writeRuns(w, runs, dw, func(doc json.RawMessage) {
		buf.Reset()
		if err := enc.Encode(doc); err != nil {
			dw.fail(err)
			return
		}
		dw.b = append(dw.b, buf.Bytes()[:buf.Len()-1]...)
	})
}

// writeRuns writes runs as the document {"runs": {label: run, ...}}, one
// run at a time, each appended by run to dw in the indented form. A run
// that fails ends the document there, after the runs before it.
func writeRuns[V any](w io.Writer, runs map[string]V, dw *docWriter, run func(V)) error {
	if runs == nil {
		_, err := io.WriteString(w, "{\n  \"runs\": null\n}\n")
		return err
	}
	if len(runs) == 0 {
		_, err := io.WriteString(w, "{\n  \"runs\": {}\n}\n")
		return err
	}
	labels := make([]string, 0, len(runs))
	for l := range runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	dw.indent, dw.depth = true, 0
	dw.b = append(dw.b[:0], "{\n  \"runs\": {\n"...)
	for i, label := range labels {
		dw.b = append(dw.b, runIndent...)
		dw.b = AppendJSONString(dw.b, label, true)
		dw.b = append(dw.b, ": "...)
		run(runs[label])
		if dw.err != nil {
			return dw.err
		}
		if i < len(labels)-1 {
			dw.b = append(dw.b, ',')
		}
		dw.b = append(dw.b, '\n')
		if _, err := w.Write(dw.b); err != nil {
			return err
		}
		dw.b = dw.b[:0]
	}
	_, err := io.WriteString(w, "  }\n}\n")
	return err
}

// spareWriter keeps one writer between WriteJSON calls, its buffer grown to
// the largest run it has written, so the next document reuses its storage.
// It is not a sync.Pool: a pool is emptied by the collections that writing
// one document's worth of runs sets off.
var spareWriter struct {
	sync.Mutex
	w *docWriter
}

// takeWriter returns the spare writer, or a new one when another WriteJSON
// holds it.
func takeWriter() *docWriter {
	spareWriter.Lock()
	defer spareWriter.Unlock()
	w := spareWriter.w
	spareWriter.w = nil
	if w == nil {
		w = new(docWriter)
	}
	return w
}

// putWriter empties w and keeps it as the spare.
func putWriter(w *docWriter) {
	*w = docWriter{b: w.b[:0], keys: w.keys[:0]}
	spareWriter.Lock()
	spareWriter.w = w
	spareWriter.Unlock()
}

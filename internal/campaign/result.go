package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"macaw/internal/experiments"
	"macaw/internal/metrics"
)

// Result is one settled job's output, held as its rendered JSONL line: the
// job's spec and seed, its failure message or its rendered tables and, for
// generator runs, every per-run RunMetrics snapshot (DESIGN.md §12) keyed
// by its deterministic sink label. The line is written once, when the job
// settles; a completed job's line is also its ledger payload, and its
// Result holds the ledger's copy, so a cache hit serves the recorded bytes
// as they are and a fresh result is not held twice. A Result is a pure
// function of the job's configuration — it carries no timestamps, host
// names, or cache provenance — which is what lets a cached replay stream
// byte-identically to a fresh simulation.
type Result struct {
	line []byte
	// scratch is the buffer a fresh line was written in, until keep points
	// line at the ledger's copy and hands the buffer to a later job.
	scratch *[]byte
}

// RenderedTable is one table of a result: the generator's table id and its
// aligned-text rendering, exactly as macawsim prints it.
type RenderedTable struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

// resultLine is the JSONL wire form of a Result, as the endpoints that
// render a result decode it (appendLine writes it). Metrics is a
// label-keyed object of compact RunMetrics documents, sorted by label. Err
// is the deterministic failure message of a job that aborted (an oracle
// violation, a watchdog panic) or was cancelled; failed jobs are never
// cached, so a resubmission retries them.
type resultLine struct {
	Spec    string                     `json:"spec"`
	Seed    int64                      `json:"seed"`
	Err     string                     `json:"error,omitempty"`
	Tables  []RenderedTable            `json:"tables,omitempty"`
	Metrics map[string]json.RawMessage `json:"metrics,omitempty"`
}

// appendLine appends job j's JSONL line to b and returns the extended
// buffer: byte for byte what an encoding/json Encoder with HTML escaping
// off writes for its resultLine. The spec and seed come first, then the
// failure message msg, the rendered tables and the sink's runs as compact
// RunMetrics documents keyed by label in sorted order, each left out when
// empty. Labels and table text keep their HTML characters; the documents
// escape theirs, as json.Marshal does. It panics, naming the run, when a
// run's document cannot be encoded.
func appendLine(b []byte, j Job, msg string, tables []RenderedTable, sink *metrics.Sink) []byte {
	b = appendHead(b, j)
	if msg != "" {
		b = append(b, `,"error":`...)
		b = metrics.AppendJSONString(b, msg, false)
	}
	if len(tables) > 0 {
		b = append(b, `,"tables":[`...)
		for i, t := range tables {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":`...)
			b = metrics.AppendJSONString(b, t.ID, false)
			b = append(b, `,"text":`...)
			b = metrics.AppendJSONString(b, t.Text, false)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if sink != nil && sink.Len() > 0 {
		b = append(b, `,"metrics":{`...)
		for i, label := range sink.Labels() {
			if i > 0 {
				b = append(b, ',')
			}
			b = metrics.AppendJSONString(b, label, false)
			b = append(b, ':')
			var err error
			if b, err = sink.Run(label).AppendJSON(b); err != nil {
				panic(fmt.Sprintf("campaign: encoding metrics for %s: %v", label, err))
			}
		}
		b = append(b, '}')
	}
	return append(b, "}\n"...)
}

// appendHead appends the opening of job j's line, its spec and seed:
// {"spec":…,"seed":…
func appendHead(b []byte, j Job) []byte {
	b = append(b, `{"spec":`...)
	b = metrics.AppendJSONString(b, j.Spec, false)
	b = append(b, `,"seed":`...)
	return strconv.AppendInt(b, j.Seed, 10)
}

// spareLines holds the scratch buffers fresh lines are written in, each
// grown to the longest line written in it. A job takes one of its own, so
// two jobs running at once never share one, and it comes back only when
// its Result points at the ledger's copy instead (Result.keep). It is not
// a sync.Pool: a pool is emptied by the collections one job sets off.
var spareLines struct {
	sync.Mutex
	free []*[]byte
}

// takeLine returns a spare scratch buffer, or a new one when none is
// free.
func takeLine() *[]byte {
	spareLines.Lock()
	defer spareLines.Unlock()
	if n := len(spareLines.free); n > 0 {
		buf := spareLines.free[n-1]
		spareLines.free = spareLines.free[:n-1]
		return buf
	}
	return new([]byte)
}

// keep points r at stored, the ledger's copy of its line, and hands the
// scratch buffer the line was written in to a later job.
func (r *Result) keep(stored []byte) {
	r.line = stored
	if buf := r.scratch; buf != nil {
		r.scratch = nil
		*buf = (*buf)[:0]
		spareLines.Lock()
		spareLines.free = append(spareLines.free, buf)
		spareLines.Unlock()
	}
}

// failedResult is the line of a job that aborted or was cancelled.
func failedResult(j Job, msg string) *Result {
	return &Result{line: appendLine(nil, j, msg, nil, nil)}
}

// cachedResult serves a ledger payload as job j's result without decoding
// it. The payload must read as j's line — its spec and seed up front, a
// complete object at the end — or the entry is refused and the job re-runs.
func cachedResult(j Job, payload []byte) (*Result, bool) {
	var arr [64]byte // on the stack for the usual spec and seed
	head := appendHead(arr[:0], j)
	// The byte after the seed must end it: seed 1's head prefixes seed 12's.
	if !bytes.HasPrefix(payload, head) || !bytes.HasSuffix(payload, []byte("}\n")) ||
		(payload[len(head)] != ',' && payload[len(head)] != '}') {
		return nil, false
	}
	return &Result{line: payload}, true
}

// WriteJSONL writes the result as one JSON line.
func (r *Result) WriteJSONL(w io.Writer) error {
	_, err := w.Write(r.line)
	return err
}

// decode parses the line back into its fields, for the rare endpoints that
// render a result rather than stream it.
func (r *Result) decode() (resultLine, error) {
	var l resultLine
	err := json.Unmarshal(r.line, &l)
	return l, err
}

// WriteText writes the result's tables exactly as macawsim renders them —
// each table followed by a blank line — so a campaign's text stream
// byte-matches the equivalent CLI run below its header.
func (r *Result) WriteText(w io.Writer) error {
	l, err := r.decode()
	if err != nil {
		return err
	}
	if l.Err != "" {
		_, err := fmt.Fprintf(w, "FAILED %s seed %d: %s\n\n", l.Spec, l.Seed, l.Err)
		return err
	}
	for _, t := range l.Tables {
		if _, err := io.WriteString(w, t.Text+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// execute runs one job to completion and returns its Result, whose line
// sits in a scratch buffer of its own until keep points it at the ledger's
// copy. It runs on the caller's goroutine — the engine dispatches it
// through Runner.Do — and panics propagate to that chokepoint, which
// converts them into the job's deterministic failure message.
func (m *Manifest) execute(j Job) *Result {
	cfg := experiments.RunConfig{Total: m.Total(), Warmup: m.Warmup(), Seed: j.Seed, Audit: m.Audit}
	var tables []RenderedTable
	var sink *metrics.Sink
	switch kind, arg, _ := splitSpec(j.Spec); kind {
	case "sweep":
		// Sweeps refuse metrics sinks (a variant's run spans the base
		// warmup and the variant's tail), so a sweep job's result is its
		// rendered tables.
		variants, err := experiments.ParseSweepSpec(arg)
		if err != nil {
			panic(fmt.Sprintf("campaign: %v", err)) // validated at submission; unreachable
		}
		tabs, _, err := experiments.RunSweepTables(cfg, variants, experiments.SweepOptions{})
		if err != nil {
			panic(fmt.Sprintf("campaign: %v", err))
		}
		for _, t := range tabs {
			tables = append(tables, RenderedTable{ID: t.ID, Text: t.Render()})
		}
	case "chaos", "table":
		g := experiments.ChaosGenerator()
		if kind == "table" {
			var ok bool
			if g, ok = experiments.Lookup(arg); !ok {
				panic(fmt.Sprintf("campaign: unknown experiment %q", arg)) // validated at submission
			}
		}
		sink = metrics.NewSink()
		cfg.Metrics = sink
		t := g.Run(cfg.ForTable(g.ID))
		tables = []RenderedTable{{ID: t.ID, Text: t.Render()}}
	default:
		panic(fmt.Sprintf("campaign: malformed job spec %q", j.Spec))
	}
	buf := takeLine()
	*buf = appendLine(*buf, j, "", tables, sink)
	return &Result{line: *buf, scratch: buf}
}

// splitSpec cuts a canonical job spec into its kind and argument.
func splitSpec(spec string) (kind, arg string, ok bool) {
	for i := 0; i < len(spec); i++ {
		if spec[i] == ':' {
			return spec[:i], spec[i+1:], true
		}
	}
	return spec, "", false
}

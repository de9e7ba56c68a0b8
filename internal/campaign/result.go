package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"macaw/internal/experiments"
	"macaw/internal/metrics"
)

// Result is one settled job's output, held as its rendered JSONL line: the
// job's spec and seed, its failure message or its rendered tables and, for
// generator runs, every per-run RunMetrics snapshot (DESIGN.md §12) keyed
// by its deterministic sink label. The line is encoded once,
// when the job settles; a completed job's line is also its ledger payload,
// so a cache hit serves the recorded bytes as they are. A Result is a pure
// function of the job's configuration — it carries no timestamps, host
// names, or cache provenance — which is what lets a cached replay stream
// byte-identically to a fresh simulation.
type Result struct {
	line []byte
}

// RenderedTable is one table of a result: the generator's table id and its
// aligned-text rendering, exactly as macawsim prints it.
type RenderedTable struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

// resultLine is the JSONL wire form of a Result. Metrics is a label-keyed
// object of compact RunMetrics documents (encoding/json sorts map keys,
// keeping the line canonical). Err is the deterministic failure message of
// a job that aborted (an oracle violation, a watchdog panic) or was
// cancelled; failed jobs are never cached, so a resubmission retries them.
type resultLine struct {
	Spec    string                     `json:"spec"`
	Seed    int64                      `json:"seed"`
	Err     string                     `json:"error,omitempty"`
	Tables  []RenderedTable            `json:"tables,omitempty"`
	Metrics map[string]json.RawMessage `json:"metrics,omitempty"`
}

// encodeLine renders v as one JSON line, HTML characters unescaped.
func encodeLine(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("campaign: encoding result: %v", err)) // concrete types cannot fail
	}
	return buf.Bytes()
}

// failedResult is the line of a job that aborted or was cancelled.
func failedResult(j Job, msg string) *Result {
	return &Result{line: encodeLine(resultLine{Spec: j.Spec, Seed: j.Seed, Err: msg})}
}

// cachedResult serves a ledger payload as job j's result without decoding
// it. The payload must read as j's line — its spec and seed up front, a
// complete object at the end — or the entry is refused and the job re-runs.
func cachedResult(j Job, payload []byte) (*Result, bool) {
	head := encodeLine(struct {
		Spec string `json:"spec"`
		Seed int64  `json:"seed"`
	}{j.Spec, j.Seed})
	head = head[:len(head)-len("}\n")]
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

// execute runs one job to completion and returns its Result. It runs on the
// caller's goroutine — the engine dispatches it through Runner.Do — and
// panics propagate to that chokepoint, which converts them into the job's
// deterministic failure message.
func (m *Manifest) execute(j Job) *Result {
	cfg := experiments.RunConfig{Total: m.Total(), Warmup: m.Warmup(), Seed: j.Seed, Audit: m.Audit}
	res := resultLine{Spec: j.Spec, Seed: j.Seed}
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
			res.Tables = append(res.Tables, RenderedTable{ID: t.ID, Text: t.Render()})
		}
	case "chaos", "table":
		g := experiments.ChaosGenerator()
		if kind == "table" {
			var ok bool
			if g, ok = experiments.Lookup(arg); !ok {
				panic(fmt.Sprintf("campaign: unknown experiment %q", arg)) // validated at submission
			}
		}
		sink := metrics.NewSink()
		cfg.Metrics = sink
		t := g.Run(cfg.ForTable(g.ID))
		res.Tables = []RenderedTable{{ID: t.ID, Text: t.Render()}}
		res.Metrics = make(map[string]json.RawMessage)
		for _, label := range sink.Labels() {
			doc, err := json.Marshal(sink.Run(label))
			if err != nil {
				panic(fmt.Sprintf("campaign: encoding metrics for %s: %v", label, err))
			}
			res.Metrics[label] = doc
		}
	default:
		panic(fmt.Sprintf("campaign: malformed job spec %q", j.Spec))
	}
	return &Result{line: encodeLine(res)}
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

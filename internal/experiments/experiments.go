// Package experiments regenerates every table in the paper's evaluation
// (Tables 1–11), pairing each measured column with the values the paper
// reports so the shape of each result — who wins, by roughly what factor,
// and which mechanism fixes which pathology — can be checked directly.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"macaw/internal/core"
	"macaw/internal/metrics"
	"macaw/internal/oracle"
	"macaw/internal/sim"
	"macaw/internal/topo"
	"macaw/internal/trace"
)

// RunConfig sets the length of each simulation run.
type RunConfig struct {
	// Total is the simulated duration; Warmup the portion excluded from
	// measurement ("simulations are typically run between 500 and 2000
	// seconds, with a warmup period of 50 seconds").
	Total  sim.Duration
	Warmup sim.Duration
	Seed   int64

	// Audit attaches the protocol-conformance oracle to every run. The
	// oracle is strictly passive — audited output is byte-identical to an
	// unaudited run — and a rule violation panics with a replayable report
	// rather than letting a non-conformant run masquerade as a result.
	Audit bool

	// Metrics, when non-nil, attaches a passive metrics.Collector to every
	// run and stores each run's snapshot in the sink under a deterministic
	// label ("<tableID>/<column name>"). Like the oracle, collection is
	// observation-only: table output stays byte-identical.
	Metrics *metrics.Sink

	// Trace, when non-nil, records every run's MAC-internal events as
	// typed trace events and adds them to the sink under the same labels.
	Trace *trace.JSONLSink

	// TraceMax caps the events recorded per run when Trace is set (0
	// means DefaultTraceMax). Overflow is counted, not silently lost.
	TraceMax int

	// TraceFrom, when Trace is set, suppresses recording before this
	// virtual time. Time-travel triage reruns the seed that misbehaved
	// and records only the tail just before the violation: a run is a pure
	// function of its configuration, so the rerun is the original run.
	TraceFrom sim.Time

	// Delta, when non-nil, applies one typed sweep parameter delta
	// (DESIGN.md §15) to the run at the delta barrier — virtual time
	// start+Warmup — through core.ApplyDelta. RunSweepTables sets it per
	// variant.
	Delta *SweepVariant

	// runner, when set via WithRunner, executes the independent runs
	// inside each generator on a worker pool instead of inline.
	runner *Runner

	// table is the run-label prefix ("table1"…), set by ForTable.
	table string

	// spares, set by ForTable to the package's scope, hands each finished
	// run's storage to the next run (core.Spares); nil builds every
	// network fresh.
	spares *core.Spares
}

// scope is the one core.Spares every run configured by ForTable builds its
// networks through: each run takes over what the runs before it released,
// in any table, the sweep or a campaign job (DESIGN.md §8, "Recycled
// networks"). It holds one released network for each network that was
// live at the same moment, so it stays bounded in a long-lived process.
var scope core.Spares

// DefaultTraceMax bounds per-run trace recording: enough for several
// minutes of simulated traffic per station without unbounded memory.
const DefaultTraceMax = 200_000

// ForTable returns a copy of cfg whose run labels are prefixed with the
// given table id, and whose runs take over the storage earlier runs
// released, and release theirs in turn, through the package's scope.
// Tables applies it automatically; call it directly when invoking a single
// generator by hand.
func (cfg RunConfig) ForTable(id string) RunConfig {
	cfg.table = id
	cfg.spares = &scope
	return cfg
}

// runLabel returns the deterministic label identifying one run in the
// metrics and trace sinks.
func (cfg RunConfig) runLabel(name string) string {
	if cfg.table == "" {
		return name
	}
	return cfg.table + "/" + name
}

// Paper returns the paper's run length.
func Paper() RunConfig {
	return RunConfig{Total: 500 * sim.Second, Warmup: 50 * sim.Second, Seed: 1}
}

// Quick returns a shortened run for tests and benchmarks; long enough for
// every table's dynamics (capture effects, starvation, noise) to develop.
func Quick() RunConfig {
	return RunConfig{Total: 120 * sim.Second, Warmup: 10 * sim.Second, Seed: 1}
}

// Bench returns the shortest run that still exhibits each table's shape.
func Bench() RunConfig {
	return RunConfig{Total: 40 * sim.Second, Warmup: 5 * sim.Second, Seed: 1}
}

// Column is one protocol variant's measurements.
type Column struct {
	// Name identifies the variant as the paper's table header does.
	Name string
	// Paper holds the values the paper reports, keyed by stream name;
	// missing entries mean the paper's table omitted or truncated them.
	Paper map[string]float64
	// Results holds this reproduction's measurements.
	Results core.Results
}

// Table is one reproduced experiment.
type Table struct {
	// ID is "table1".."table11"; Figure names the topology.
	ID, Figure string
	// Title describes the experiment.
	Title string
	// Streams lists the row order (stream names).
	Streams []string
	// Columns holds one entry per protocol variant.
	Columns []Column
	// Notes records interpretation decisions affecting comparison.
	Notes string
}

// Render returns an aligned text table interleaving paper and measured
// values.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", strings.ToUpper(t.ID), t.Title, t.Figure)
	fmt.Fprintf(&b, "%-10s", "stream")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " | %22s", c.Name)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-10s", "")
	for range t.Columns {
		fmt.Fprintf(&b, " | %10s %11s", "paper", "measured")
	}
	b.WriteString("\n")
	for _, s := range t.Streams {
		fmt.Fprintf(&b, "%-10s", s)
		for _, c := range t.Columns {
			paper := "-"
			if v, ok := c.Paper[s]; ok {
				paper = fmt.Sprintf("%.2f", v)
			}
			fmt.Fprintf(&b, " | %10s %11.2f", paper, c.Results.PPS(s))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-10s", "TOTAL")
	for _, c := range t.Columns {
		var paperTotal float64
		seen := true
		for _, s := range t.Streams {
			v, ok := c.Paper[s]
			if !ok {
				seen = false
				break
			}
			paperTotal += v
		}
		paper := "-"
		if seen {
			paper = fmt.Sprintf("%.2f", paperTotal)
		}
		var total float64
		for _, s := range t.Streams {
			total += c.Results.PPS(s)
		}
		fmt.Fprintf(&b, " | %10s %11.2f", paper, total)
	}
	b.WriteString("\n")
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// CSV renders the table as comma-separated values: one row per stream,
// with a paper and a measured column per variant.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString("stream")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, ",%s paper,%s measured", c.Name, c.Name)
	}
	b.WriteString("\n")
	for _, s := range t.Streams {
		b.WriteString(s)
		for _, c := range t.Columns {
			if v, ok := c.Paper[s]; ok {
				fmt.Fprintf(&b, ",%.2f", v)
			} else {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, ",%.2f", c.Results.PPS(s))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MeasuredTotal sums the measured rates of column i over the table's rows.
func (t Table) MeasuredTotal(i int) float64 {
	var total float64
	for _, s := range t.Streams {
		total += t.Columns[i].Results.PPS(s)
	}
	return total
}

// runLayout builds the layout on a new network, applies mods (noise,
// mobility, power events), and runs it. name labels the run in the metrics
// and trace sinks.
func runLayout(cfg RunConfig, name string, l topo.Layout, f core.MACFactory, mods ...func(*core.Network)) core.Results {
	n := cfg.spares.Network(cfg.Seed)
	rc := cfg.instrument(name, n)
	if err := l.Build(n, f); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	for _, mod := range mods {
		mod(n)
	}
	return rc.run(n)
}

// runCtl is the per-run control handle instrument returns: the run's sink
// label and the finish hook for its passive observers (the audit oracle
// among them). Its run method is the chokepoint that executes the network.
type runCtl struct {
	cfg    RunConfig
	label  string
	finish func(core.Results)
}

// instrument attaches every configured passive observer to a freshly built
// network — the oracle, then the metrics collector, then the trace
// recorder, each only when configured — and returns the run's control
// handle; call rc.run(n) once the layout is built. It must be called before
// the layout adds stations. All attachments are observation-only, so an
// instrumented run's results are byte-identical to a bare one. The finish
// hook checks the audit, then files the run's metrics and trace under the
// run label.
func (cfg RunConfig) instrument(name string, n *core.Network) runCtl {
	label := cfg.runLabel(name)
	a := cfg.newAudit(n)
	var col *metrics.Collector
	if cfg.Metrics != nil {
		col = metrics.NewCollector()
		n.AddMACObserver(col.Observer)
	}
	var rec *trace.Recorder
	if cfg.Trace != nil {
		rec = trace.NewRecorder(n.Sim)
		rec.Max = cfg.TraceMax
		if rec.Max == 0 {
			rec.Max = DefaultTraceMax
		}
		rec.From = cfg.TraceFrom
		n.AddMACObserver(rec.MACObserver)
	}
	finish := func(res core.Results) {
		a.check()
		if col != nil {
			cfg.Metrics.Add(label, col.Snapshot(n, res, cfg.Seed))
		}
		if rec != nil {
			cfg.Trace.Add(label, rec.Events(), rec.Dropped())
		}
	}
	return runCtl{cfg: cfg, label: label, finish: finish}
}

// run executes the built network, invokes the finish hook and releases
// the network, so the next run takes over its storage. It is the single
// chokepoint every generator's run goes through, in one of two shapes: a
// plain run, or a sweep variant that pauses at the delta barrier
// (start+Warmup) to apply its delta to the network warmed up under the base
// configuration. RunTo pauses are not events, so the variant fires exactly
// the events a plain run would up to the barrier. The caller may keep the
// Results and what its own observers recorded, not the network.
func (rc runCtl) run(n *core.Network) core.Results {
	cfg := rc.cfg
	var res core.Results
	if cfg.Delta == nil {
		res = n.Run(cfg.Total, cfg.Warmup)
	} else {
		n.Start(cfg.Total, cfg.Warmup)
		n.RunTo(n.Sim.Now() + sim.Time(cfg.Warmup))
		if err := n.ApplyDelta(cfg.Delta.Kind, cfg.Delta.Value); err != nil {
			panic(fmt.Sprintf("experiments: delta for %s: %v", rc.label, err))
		}
		n.RunTo(n.End())
		res = n.Collect()
	}
	rc.finish(res)
	n.Release()
	return res
}

// audit is the per-run handle of the conformance oracle; the zero value (no
// auditing) is a no-op.
type audit struct{ o *oracle.Oracle }

// newAudit attaches the oracle to a freshly built network when cfg.Audit is
// set. It must be called before the layout adds stations.
func (cfg RunConfig) newAudit(n *core.Network) audit {
	if !cfg.Audit {
		return audit{}
	}
	o := oracle.New(cfg.Seed)
	o.Attach(n)
	return audit{o: o}
}

// check panics with the replayable violation report if the audited run broke
// any protocol rule.
func (a audit) check() {
	if a.o == nil {
		return
	}
	if err := a.o.Err(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}

// streamNames lists a layout's stream names in declaration order.
func streamNames(l topo.Layout) []string {
	out := make([]string, 0, len(l.Streams))
	for _, s := range l.Streams {
		out = append(out, s.From+"-"+s.To)
	}
	return out
}

// Generator is a named experiment factory.
type Generator struct {
	ID   string
	Name string
	Run  func(cfg RunConfig) Table
}

// All returns every table generator in order.
func All() []Generator {
	return []Generator{
		{"table1", "BEB vs backoff copying (Figure 2)", Table1},
		{"table2", "BEB vs MILD under contention (Figure 3)", Table2},
		{"table3", "single vs per-stream queues (Figure 4)", Table3},
		{"table4", "link-level ACK under noise", Table4},
		{"table5", "DS and the exposed terminal (Figure 5)", Table5},
		{"table6", "RRTS and receiver-side contention (Figure 6)", Table6},
		{"table7", "the unsolved configuration (Figure 7)", Table7},
		{"table8", "per-destination backoff with a dead pad (Figure 9)", Table8},
		{"table9", "single-stream protocol overhead", Table9},
		{"table10", "MACA vs MACAW, three cells (Figure 10)", Table10},
		{"table11", "MACA vs MACAW, office scenario (Figure 11)", Table11},
	}
}

// Lookup resolves an experiment id across the paper tables and the
// extension experiments. The chaos table is deliberately not among them: it
// is selected on its own (macawsim -chaos, a manifest's "chaos": true).
func Lookup(id string) (Generator, bool) {
	for _, g := range append(All(), Extensions()...) {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// KnownIDs returns every id Lookup resolves, sorted.
func KnownIDs() []string {
	var ids []string
	for _, g := range append(All(), Extensions()...) {
		ids = append(ids, g.ID)
	}
	sort.Strings(ids)
	return ids
}

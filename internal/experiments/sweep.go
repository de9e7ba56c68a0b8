package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"macaw/internal/core"
	"macaw/internal/geom"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/dcf"
	"macaw/internal/mac/macaw"
	"macaw/internal/mac/token"
	"macaw/internal/mac/tournament"
	"macaw/internal/stats"
	"macaw/internal/topo"
)

// This file implements the parameter sweep (DESIGN.md §15). Every cell —
// one variant against one protocol — builds its network, warms it up under
// the base configuration, and at the warmup barrier applies the variant's
// typed delta (a backoff constant, the offered load, a retry limit) through
// core.ApplyDelta before running the measured tail. That is what the tables
// call "warm-started": the variant's delta takes effect on a network already
// warmed up under the base configuration. A delta that cannot be applied at
// the barrier (fault.* trajectories are fixed at build time) fails closed
// with a typed error instead of producing a silently wrong variant.

// SweepVariant is one parameter point of a sweep: the delta kind (one of
// core.DeltaKinds) and the value it takes after the warmup barrier.
type SweepVariant struct {
	Kind  string
	Value float64
}

// Label renders the variant as it appears in sweep specs and table rows.
func (v SweepVariant) Label() string { return fmt.Sprintf("%s=%g", v.Kind, v.Value) }

// ParseSweepSpec parses a sweep specification of the form
// "kind=v1,v2[;kind2=v3,…]" — for example
// "backoff.max=16,32;load.rate=40,64" — into the variant list, in spec
// order. Unknown parameter kinds and malformed values are errors naming the
// offending field.
func ParseSweepSpec(spec string) ([]SweepVariant, error) {
	known := make(map[string]bool)
	for _, k := range core.DeltaKinds() {
		known[k] = true
	}
	var out []SweepVariant
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		kind, vals, ok := strings.Cut(group, "=")
		kind = strings.TrimSpace(kind)
		if !ok || kind == "" || strings.TrimSpace(vals) == "" {
			return nil, fmt.Errorf("experiments: sweep group %q is not kind=v1,v2,…", group)
		}
		if !known[kind] {
			return nil, fmt.Errorf("experiments: unknown sweep parameter %q (known: %s)",
				kind, strings.Join(core.DeltaKinds(), ", "))
		}
		for _, vs := range strings.Split(vals, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(vs), 64)
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep value %q of %s is not a number", strings.TrimSpace(vs), kind)
			}
			out = append(out, SweepVariant{Kind: kind, Value: v})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: sweep spec %q names no variants", spec)
	}
	return out, nil
}

// SweepOptions selects how RunSweepTables executes. It has no fields:
// every cell runs the same way. It remains so RunSweepTables keeps the
// signature its callers compile against.
type SweepOptions struct{}

// SweepInfo reports how a sweep executed.
type SweepInfo struct {
	// Variants and Protocols give the sweep grid: Variants*Protocols runs.
	Variants, Protocols int
	// Warmups counts warmup simulations performed: every cell simulates its
	// own, so it is Variants*Protocols. It remains because callers report
	// the warmup work a sweep did.
	Warmups int
	// Forks is always 0: no cell starts from another run's state. It
	// remains so callers that report it keep compiling.
	Forks int
}

// sweepCol is one protocol column of the sweep grid.
type sweepCol struct {
	name    string
	factory func() core.MACFactory
}

// sweepCols returns the sweep's protocol columns: every MAC family the
// reproduction implements, in the paper's order of appearance, then the
// comparison backends (802.11 DCF and the tournament scheme). Every engine
// here implements the full mac.Engine SPI, so the delta layer retunes each
// column without per-protocol cases.
func sweepCols() []sweepCol {
	return []sweepCol{
		{"CSMA", func() core.MACFactory { return core.CSMAFactory(csma.Options{ACK: true}) }},
		{"MACA", func() core.MACFactory { return core.MACAFactory() }},
		{"MACAW", func() core.MACFactory { return core.MACAWFactory(macaw.DefaultOptions()) }},
		{"token", func() core.MACFactory { return core.TokenFactory(token.Options{Ring: core.RingOf(5)}) }},
		{"DCF", func() core.MACFactory { return core.DCFFactory(dcf.Options{}) }},
		{"TOURN", func() core.MACFactory { return core.TournamentFactory(tournament.Options{}) }},
	}
}

// SweepLayout is the sweep topology: one cell, a base station and four pads
// all in range of each other, four uplink streams. Dense enough that every
// backoff and load knob moves throughput, small enough that a variant's
// tail runs in milliseconds.
func SweepLayout() topo.Layout {
	l := topo.Layout{
		Name: "sweep",
		Doc:  "one cell, four pads uplink to one base",
		Stations: []topo.StationSpec{
			{Name: "B", Pos: geom.V(0, 0, 12), Base: true},
			{Name: "P1", Pos: geom.V(4, 3, 6)},
			{Name: "P2", Pos: geom.V(2, 3, 6)},
			{Name: "P3", Pos: geom.V(0, 3, 6)},
			{Name: "P4", Pos: geom.V(-2, 3, 6)},
		},
	}
	for _, p := range []string{"P1", "P2", "P3", "P4"} {
		l.Streams = append(l.Streams, topo.StreamSpec{From: p, To: "B", Kind: core.UDP, Rate: 16})
		l.Relations = append(l.Relations,
			topo.Relation{A: p, B: "B", Hears: true},
			topo.Relation{A: "B", B: p, Hears: true})
	}
	return l
}

// RunSweepTables executes the sweep grid — every variant against every
// protocol column — and renders two Tables over the same runs: aggregate
// throughput per cell, then Jain's fairness index across the four uplink
// streams per cell (the tournament-versus-DCF comparison is exactly these
// two read together: a constant window trades peak throughput for a flatter
// allocation). Every cell runs its own warmup, then its delta, then the
// tail.
//
// Sweeps are measurement-grade runs, not triage runs: metrics and trace
// sinks are refused, because a variant's run spans two configurations (the
// base warmup and the variant's tail), so one instrumentation document would
// mix them. The audit oracle works. Runs dispatch through cfg's runner when
// one is set (WithRunner), so cells run concurrently.
func RunSweepTables(cfg RunConfig, variants []SweepVariant, _ SweepOptions) ([]Table, SweepInfo, error) {
	if cfg.Metrics != nil || cfg.Trace != nil {
		return nil, SweepInfo{}, fmt.Errorf("experiments: sweeps cannot carry metrics or trace sinks (a variant's run spans the base warmup and the variant's tail)")
	}
	if cfg.Delta != nil {
		return nil, SweepInfo{}, fmt.Errorf("experiments: RunConfig.Delta is set per variant by the sweep itself")
	}
	if len(variants) == 0 {
		return nil, SweepInfo{}, fmt.Errorf("experiments: sweep has no variants")
	}
	cfg = cfg.ForTable("sweep")
	cols := sweepCols()
	info := SweepInfo{Variants: len(variants), Protocols: len(cols), Warmups: len(variants) * len(cols)}

	futs := make([][]*future[core.Results], len(variants))
	for vi, v := range variants {
		futs[vi] = make([]*future[core.Results], len(cols))
		for ci, col := range cols {
			v, col := v, col
			cfgv := cfg
			cfgv.Delta = &v
			futs[vi][ci] = goFuture(cfgv, func() core.Results {
				return runLayout(cfgv, col.name+"/"+v.Label(), SweepLayout(), col.factory())
			})
		}
	}

	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = v.Label()
	}
	tab := Table{
		ID:      "sweep",
		Figure:  "sweep topology",
		Title:   "parameter sweep (warm-started), aggregate pkt/s per variant",
		Streams: rows,
		Notes:   "each cell is the run's total delivered rate; a warm-started cell is byte-identical to its cold twin",
	}
	fair := Table{
		ID:      "sweep-fairness",
		Figure:  "sweep topology",
		Title:   "parameter sweep (warm-started), Jain fairness index per variant",
		Streams: rows,
		Notes:   "each cell is Jain's index over the four uplink streams' delivered rates (1.00 = even split)",
	}
	for ci, col := range cols {
		c := Column{Name: col.name, Paper: map[string]float64{}}
		fc := Column{Name: col.name, Paper: map[string]float64{}}
		rs := make([]core.StreamResult, len(variants))
		frs := make([]core.StreamResult, len(variants))
		for vi := range variants {
			res := futs[vi][ci].wait()
			rs[vi] = core.StreamResult{Name: rows[vi], PPS: res.TotalPPS()}
			pps := make([]float64, 0, len(res.Streams))
			for _, sr := range res.Streams {
				rs[vi].Delivered += sr.Delivered
				rs[vi].Offered += sr.Offered
				pps = append(pps, sr.PPS)
			}
			frs[vi] = core.StreamResult{Name: rows[vi], PPS: stats.Jain(pps)}
		}
		c.Results = core.Results{Streams: rs, Duration: cfg.Total, Warmup: cfg.Warmup}
		fc.Results = core.Results{Streams: frs, Duration: cfg.Total, Warmup: cfg.Warmup}
		tab.Columns = append(tab.Columns, c)
		fair.Columns = append(fair.Columns, fc)
	}
	tabs := []Table{tab, fair}
	if f := cfg.runner.Failure(); f != nil {
		return tabs, info, f
	}
	return tabs, info, nil
}

package experiments

import (
	"fmt"
	"strings"
	"testing"

	"macaw/internal/core"
	"macaw/internal/metrics"
	"macaw/internal/sim"
	"macaw/internal/stats"
	"macaw/internal/trace"
)

// sweepCfg is short enough to sweep under the race detector, long enough
// that every delta kind has events to act on after the barrier.
func sweepCfg(seed int64) RunConfig {
	return RunConfig{Total: 4 * sim.Second, Warmup: 1 * sim.Second, Seed: seed, Audit: true}
}

// sweepTestVariants covers four of the six delta kinds — one backoff bound,
// one MILD factor, the offered load, and the retry limit.
var sweepTestVariants = []SweepVariant{
	{Kind: "backoff.max", Value: 16},
	{Kind: "mild.inc", Value: 2},
	{Kind: "load.rate", Value: 52},
	{Kind: "retry.limit", Value: 2},
}

// TestSweepWarmMatchesCold is the sweep engine's differential proof at the
// experiments layer: for every protocol column, every delta kind in
// sweepTestVariants and twenty seeds, each cell of the audited sweep —
// dispatched through a worker pool and the run chokepoint — is
// byte-identical to a bare core run of the same cell (sweepMatchesBare).
func TestSweepWarmMatchesCold(t *testing.T) {
	r := NewRunner(4)
	for seed := int64(1); seed <= 20; seed++ {
		tabs, _, err := RunSweepTables(sweepCfg(seed).WithRunner(r), sweepTestVariants, SweepOptions{})
		if err != nil {
			t.Fatalf("seed %d sweep: %v", seed, err)
		}
		sweepMatchesBare(t, tabs, sweepCfg(seed), sweepTestVariants)
	}
}

// sweepMatchesBare requires every cell of tabs, the tables of a sweep over
// variants at cfg, to equal a bare core run of the same cell on a fresh
// network: build, start, run to the warmup barrier, apply the delta, run
// to the end.
func sweepMatchesBare(t *testing.T, tabs []Table, cfg RunConfig, variants []SweepVariant) {
	t.Helper()
	seed := cfg.Seed
	for ci, col := range sweepCols() {
		for vi, v := range variants {
			n := core.NewNetwork(seed)
			if err := SweepLayout().Build(n, col.factory()); err != nil {
				t.Fatal(err)
			}
			n.Start(cfg.Total, cfg.Warmup)
			n.RunTo(sim.Time(cfg.Warmup))
			if err := n.ApplyDelta(v.Kind, v.Value); err != nil {
				t.Fatalf("seed %d %s/%s: %v", seed, col.name, v.Label(), err)
			}
			n.RunTo(n.End())
			res := n.Collect()
			want := core.StreamResult{Name: v.Label(), PPS: res.TotalPPS()}
			pps := make([]float64, 0, len(res.Streams))
			for _, sr := range res.Streams {
				want.Delivered += sr.Delivered
				want.Offered += sr.Offered
				pps = append(pps, sr.PPS)
			}
			wantFair := core.StreamResult{Name: v.Label(), PPS: stats.Jain(pps)}
			if got := tabs[0].Columns[ci].Results.Streams[vi]; got != want {
				t.Errorf("seed %d %s/%s: sweep cell %+v, bare run %+v", seed, col.name, v.Label(), got, want)
			}
			if got := tabs[1].Columns[ci].Results.Streams[vi]; got != wantFair {
				t.Errorf("seed %d %s/%s: fairness cell %+v, bare run %+v", seed, col.name, v.Label(), got, wantFair)
			}
		}
	}
}

// TestSweepInfoCountsEveryCell: every (variant, protocol) cell runs its own
// warmup and none is forked, so SweepInfo reads {V, P, V×P, 0}.
func TestSweepInfoCountsEveryCell(t *testing.T) {
	tabs, info, err := RunSweepTables(sweepCfg(1), sweepTestVariants, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, p := len(sweepTestVariants), len(sweepCols())
	if want := (SweepInfo{Variants: v, Protocols: p, Warmups: v * p, Forks: 0}); info != want {
		t.Fatalf("SweepInfo = %+v, want %+v", info, want)
	}
	if len(tabs) != 2 || len(tabs[0].Streams) != v || len(tabs[0].Columns) != p {
		t.Fatalf("sweep rendered %d tables, want 2 of %d variants x %d protocols", len(tabs), v, p)
	}
}

// TestParseSweepSpec pins the spec grammar and its error reporting.
func TestParseSweepSpec(t *testing.T) {
	got, err := ParseSweepSpec("backoff.max=16,32; load.rate = 40")
	if err != nil {
		t.Fatalf("ParseSweepSpec: %v", err)
	}
	want := []SweepVariant{{"backoff.max", 16}, {"backoff.max", 32}, {"load.rate", 40}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ParseSweepSpec = %v, want %v", got, want)
	}
	for _, tc := range []struct{ spec, wantErr string }{
		{"nonsense=1", "unknown sweep parameter"},
		{"backoff.max=fast", "is not a number"},
		{"backoff.max", "not kind=v1,v2"},
		{"", "names no variants"},
		{";;", "names no variants"},
	} {
		if _, err := ParseSweepSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseSweepSpec(%q) = %v, want error containing %q", tc.spec, err, tc.wantErr)
		}
	}
}

// TestRunSweepRefusesIncompatibleConfigs: a variant's run spans the base
// warmup and the variant's tail, so sweeps refuse metrics and trace sinks
// rather than record documents that mix the two; a caller-set delta is a
// config error too.
func TestRunSweepRefusesIncompatibleConfigs(t *testing.T) {
	base := sweepCfg(1)
	for name, cfg := range map[string]RunConfig{
		"metrics": func() RunConfig { c := base; c.Metrics = metrics.NewSink(); return c }(),
		"trace":   func() RunConfig { c := base; c.Trace = trace.NewJSONLSink(); return c }(),
		"delta":   func() RunConfig { c := base; c.Delta = &SweepVariant{Kind: "load.rate", Value: 40}; return c }(),
	} {
		if _, _, err := RunSweepTables(cfg, sweepTestVariants[:1], SweepOptions{}); err == nil {
			t.Errorf("RunSweepTables with %s configured did not error", name)
		}
	}
	if _, _, err := RunSweepTables(base, nil, SweepOptions{}); err == nil {
		t.Error("RunSweepTables with no variants did not error")
	}
}

package experiments

import (
	"fmt"
	"strings"
	"testing"

	"macaw/internal/metrics"
	"macaw/internal/sim"
	"macaw/internal/trace"
)

// sweepCfg is short enough to sweep twenty seeds twice (warm and cold)
// under the race detector, long enough that every delta kind has events to
// act on after the barrier.
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
// experiments layer: for every protocol column, every delta kind, and
// twenty seeds, the warm-started sweep — one audited warmup per protocol,
// forked into every variant — renders the byte-identical table to the cold
// sweep that simulates each variant from scratch. Variants dispatch through
// a worker pool, so under -race this also exercises concurrent forks
// reading one shared twin.
func TestSweepWarmMatchesCold(t *testing.T) {
	r := NewRunner(4)
	for seed := int64(1); seed <= 20; seed++ {
		cfg := sweepCfg(seed).WithRunner(r)
		warmTabs, warmInfo, err := RunSweepTables(cfg, sweepTestVariants, SweepOptions{})
		if err != nil {
			t.Fatalf("seed %d warm sweep: %v", seed, err)
		}
		coldTabs, coldInfo, err := RunSweepTables(cfg, sweepTestVariants, SweepOptions{Cold: true})
		if err != nil {
			t.Fatalf("seed %d cold sweep: %v", seed, err)
		}
		warm, cold := warmTabs[0], coldTabs[0]
		// The titles name their mode; everything measured must agree.
		cold.Title = warm.Title
		if got, want := fmt.Sprintf("%+v", warm), fmt.Sprintf("%+v", cold); got != want {
			t.Fatalf("seed %d: warm sweep differs from cold:\n--- warm ---\n%s\n--- cold ---\n%s",
				seed, warm.Render(), cold.Render())
		}
		cells := len(sweepTestVariants) * len(sweepCols())
		if warmInfo.Warmups != len(sweepCols()) || warmInfo.Forks != cells || warmInfo.ColdRuns != 0 {
			t.Fatalf("seed %d: warm sweep ran %+v", seed, warmInfo)
		}
		if coldInfo.ColdRuns != cells || coldInfo.Warmups != 0 || coldInfo.Forks != 0 {
			t.Fatalf("seed %d: cold sweep ran %+v", seed, coldInfo)
		}
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

// TestRunSweepRefusesIncompatibleConfigs: sinks observe only the tail of a
// warm-started run, so sweeps refuse them rather than record documents that
// silently differ from a cold run's; a caller-set delta is a config error
// too.
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

package experiments

import (
	"runtime"
	"strings"
	"testing"

	"macaw/internal/sim"
)

// detCfg is long enough for every table's dynamics to produce non-trivial
// numbers while keeping the full 11-table sweep fast enough to run twice.
func detCfg() RunConfig {
	return RunConfig{Total: 8 * sim.Second, Warmup: 2 * sim.Second, Seed: 7}
}

// renderAll renders every paper table in order into one string.
func renderAll(tabs []Table) string {
	var b strings.Builder
	for _, t := range tabs {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// runSerial regenerates Table1..Table11 inline, the pre-runner way.
func runSerial(cfg RunConfig) []Table {
	gens := All()
	tabs := make([]Table, 0, len(gens))
	for _, g := range gens {
		tabs = append(tabs, g.Run(cfg))
	}
	return tabs
}

// TestSerialRunsAreReproducible asserts that two serial sweeps at the same
// seed render byte-identically: every run is a pure function of its config.
func TestSerialRunsAreReproducible(t *testing.T) {
	first := renderAll(runSerial(detCfg()))
	second := renderAll(runSerial(detCfg()))
	if first != second {
		t.Fatalf("two serial runs at the same seed differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestParallelMatchesSerial asserts that the worker-pool runner produces
// byte-identical rendered tables to the serial path at the same seed —
// the property cmd/macawsim's -jobs flag is allowed to assume.
func TestParallelMatchesSerial(t *testing.T) {
	serial := renderAll(runSerial(detCfg()))
	tabs, err := NewRunner(4).Tables(All(), detCfg())
	if err != nil {
		t.Fatalf("parallel sweep failed: %v", err)
	}
	parallel := renderAll(tabs)
	if serial != parallel {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestSparesHandOffMatchesFresh runs tables whose runs hand their storage
// on through the package's core.Spares — in order on the serial path, and
// concurrently under a worker pool — and requires the rendering of a
// RunConfig that never went through ForTable, whose every run builds its
// network fresh. Run it under the race detector.
func TestSparesHandOffMatchesFresh(t *testing.T) {
	cfg := RunConfig{Total: 4 * sim.Second, Warmup: sim.Second, Seed: 3}
	var gens []Generator
	for _, id := range []string{"table4", "ext-loadsweep"} {
		g, ok := Lookup(id)
		if !ok {
			t.Fatalf("no generator %s", id)
		}
		gens = append(gens, g)
	}
	fresh := make([]Table, len(gens))
	for i, g := range gens {
		fresh[i] = g.Run(cfg)
	}
	want := renderAll(fresh)
	for _, jobs := range []int{1, 4} {
		tabs, err := NewRunner(jobs).Tables(gens, cfg)
		if err != nil {
			t.Fatalf("jobs %d: %v", jobs, err)
		}
		if got := renderAll(tabs); got != want {
			t.Errorf("jobs %d: tables through Spares differ from fresh networks:\n%s\nwant:\n%s", jobs, got, want)
		}
	}
}

// TestSparesAcrossTables runs table10, table1, the sweep and table1 again
// through ForTable, so each table's runs take over the storage the tables
// before it released. Every table must render as it does on fresh
// networks, and every sweep cell must equal a bare run on a fresh network.
// The second table1 finds storage sized for all of them, so it must
// allocate under a quarter of the bytes table1 allocates on fresh
// networks: what it still allocates is its stations, engines and the runs'
// fixed costs.
func TestSparesAcrossTables(t *testing.T) {
	cfg := RunConfig{Total: 10 * sim.Second, Warmup: sim.Second, Seed: 3}
	lookup := func(id string) Generator {
		g, ok := Lookup(id)
		if !ok {
			t.Fatalf("no generator %s", id)
		}
		return g
	}
	table1, table10 := lookup("table1"), lookup("table10")
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var fresh1 Table
	freshBytes := allocated(func() { fresh1 = table1.Run(cfg) })
	want1 := fresh1.Render()

	if got, want := table10.Run(cfg.ForTable("table10")).Render(), table10.Run(cfg).Render(); got != want {
		t.Errorf("table10 through the shared Spares differs from fresh networks:\n%s\nwant:\n%s", got, want)
	}
	if got := table1.Run(cfg.ForTable("table1")).Render(); got != want1 {
		t.Errorf("table1 after table10 differs from fresh networks:\n%s\nwant:\n%s", got, want1)
	}
	tabs, _, err := RunSweepTables(cfg, sweepTestVariants, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sweepMatchesBare(t, tabs, cfg, sweepTestVariants)

	var again Table
	reusedBytes := allocated(func() { again = table1.Run(cfg.ForTable("table1")) })
	if got := again.Render(); got != want1 {
		t.Errorf("table1 after the sweep differs from fresh networks:\n%s\nwant:\n%s", got, want1)
	}
	t.Logf("table1 on fresh networks %d bytes, after table10, table1 and the sweep %d (%.1f%%)",
		freshBytes, reusedBytes, 100*float64(reusedBytes)/float64(freshBytes))
	if reusedBytes*4 >= freshBytes {
		t.Fatalf("table1 after the other tables allocated %d bytes, want less than a quarter of its %d on fresh networks",
			reusedBytes, freshBytes)
	}
}

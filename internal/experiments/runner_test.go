package experiments

import (
	"runtime"
	"strings"
	"testing"

	"macaw/internal/sim"
)

// TestRunnerReportsFailedRun is the worker-pool satellite: a run that dies
// under -jobs must not take the process down or strand its siblings — the
// pool drains, queued runs cancel, and Tables returns which (table, seed)
// died.
func TestRunnerReportsFailedRun(t *testing.T) {
	boom := Generator{ID: "boom", Name: "always panics", Run: func(cfg RunConfig) Table {
		f := goFuture(cfg, func() int { panic("injected failure") })
		f.wait()
		return Table{ID: "boom"}
	}}
	good := mustGen(t, "table9")
	cfg := RunConfig{Total: 4 * sim.Second, Warmup: 1 * sim.Second, Seed: 7}

	tabs, err := NewRunner(4).Tables([]Generator{good, boom}, cfg)
	if err == nil {
		t.Fatal("Tables returned no error for a panicking run")
	}
	var rf *RunFailure
	if f, ok := err.(*RunFailure); ok {
		rf = f
	} else {
		t.Fatalf("error is %T, want *RunFailure", err)
	}
	if rf.Table != "boom" || rf.Seed != 7 {
		t.Fatalf("failure names (%q, %d), want (boom, 7)", rf.Table, rf.Seed)
	}
	if msg := err.Error(); !strings.Contains(msg, "boom") || !strings.Contains(msg, "seed 7") {
		t.Fatalf("error %q does not name the dead (table, seed)", msg)
	}
	// The sibling table completed and was not abandoned. (On a one-core
	// machine the pool degenerates to the serial path, which stops at the
	// failure; the completed sibling is still returned either way.)
	if len(tabs) < 1 || tabs[0].ID != "table9" || len(tabs[0].Columns) == 0 {
		t.Fatalf("sibling table abandoned: %+v", tabs)
	}

	// Serial path: same reporting, partial results up to the failure.
	if _, err := NewRunner(1).Tables([]Generator{good, boom}, cfg); err == nil {
		t.Fatal("serial Tables returned no error for a panicking run")
	}
}

// TestRunnerCancelsQueuedRuns: once one run fails, runs still waiting for a
// pool slot are skipped rather than started.
func TestRunnerCancelsQueuedRuns(t *testing.T) {
	r := NewRunner(1)
	cfg := RunConfig{Seed: 3}.WithRunner(r)
	cfg.table = "boom"
	first := goFuture(cfg, func() int { panic("die first") })
	first.wait()
	started := false
	second := goFuture(cfg, func() int { started = true; return 1 })
	if got := second.wait(); got != 0 || started {
		t.Fatalf("queued run started after a failure (val=%d started=%t)", got, started)
	}
	if f := r.Failure(); f == nil || f.Seed != 3 {
		t.Fatalf("failure not recorded: %+v", f)
	}
}

// mustGen fetches a paper-table generator.
func mustGen(t *testing.T, id string) Generator {
	t.Helper()
	g, ok := Lookup(id)
	if !ok {
		t.Fatalf("generator %q missing", id)
	}
	return g
}

// TestRunnerCapsJobsAtNumCPU pins the -jobs regression fix: the effective
// worker count never exceeds the machine's cores, and a cap of 1 means the
// pool is skipped (Tables runs generators inline).
func TestRunnerCapsJobsAtNumCPU(t *testing.T) {
	if got := NewRunner(0).Jobs(); got != 1 {
		t.Fatalf("NewRunner(0).Jobs() = %d, want 1", got)
	}
	huge := NewRunner(1 << 20)
	if huge.Jobs() > runtime.NumCPU() {
		t.Fatalf("Jobs() = %d exceeds NumCPU = %d", huge.Jobs(), runtime.NumCPU())
	}
}

package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// Each sample goes to its innermost repository frame; runtime and
// standard-library frames count toward the repository frame enclosing
// them, and a stack without one goes to runtime.
func TestAttributeChargesInnermostRepoFrame(t *testing.T) {
	f, err := os.Open("testdata/pprof-traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sim":         10 * time.Millisecond,
		"transport":   20 * time.Millisecond, // mallocgc under traffic
		"phy":         70 * time.Millisecond, // startTx, and geom's grid under the medium
		"mac":         20 * time.Millisecond, // a MACAW handler, and backoff
		"experiments": 10 * time.Millisecond, // a generic frame whose type names core
		"campaign":    20 * time.Millisecond, // the sort's type argument names sim, not its caller
		"snapshot":    1500 * time.Microsecond,
		"runtime":     1040 * time.Millisecond, // GC workers, and netem, which no layer owns
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s: %v, want %v", l, got[l], d)
		}
	}
	for l, d := range got {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected layer %s: %v", l, d)
		}
	}
}

func TestAttributeRejectsMalformedSample(t *testing.T) {
	in := "header\n-----------+----\n      tenms   main.main\n-----------+----\n"
	if _, err := attribute(strings.NewReader(in)); err == nil {
		t.Fatal("a sample value that is not a duration was accepted")
	}
}

// A span's self time is its duration minus the union of its children's
// intervals, clipped to its own.
func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50}, // overlaps span 2: ran concurrently
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120},
		{ID: 5, Parent: 2, StartNs: 12, EndNs: 18}, // a grandchild does not count for span 1
	}
	setSelfTimes(spans)
	want := map[int]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
	for _, s := range spans {
		if s.SelfNs != want[s.ID] {
			t.Errorf("span %d: self %d ns, want %d", s.ID, s.SelfNs, want[s.ID])
		}
	}
}

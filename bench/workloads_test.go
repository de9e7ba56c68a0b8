package main

import (
	"path/filepath"
	"testing"
	"time"

	"macaw/internal/sim"
)

// tinySizes runs every workload body in well under a second.
var tinySizes = sizes{
	Paper:    paperSize{Total: 3 * sim.Second, Warmup: sim.Second, Sweep: "backoff.max=8"},
	Building: buildingSize{N: 24, Total: sim.Second, Warmup: sim.Second / 5, Slice: sim.Second / 4},
	City:     citySize{N: 160, AreaFt: 1200, Total: sim.Second, Warmup: sim.Second / 5},
	Campaign: campaignSize{Seeds: 1, TotalS: 1, WarmupS: 0.2, Resubmits: 40},
}

// Each workload body runs clean at a tiny size, traced and untraced, and
// the two produce the same output.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				dir := t.TempDir()
				r := newRep(w.name, 3, traced, dir, time.Now())
				r.profile = filepath.Join(dir, "cpu.pprof")
				res := r.run(w, tinySizes)
				if len(res.Errors) > 0 || res.Failed != 0 {
					t.Fatalf("traced=%t: errors %v, failed %d", traced, res.Errors, res.Failed)
				}
				if res.Attempted == 0 || res.WallS <= 0 || res.SetupS <= 0 || res.AllocMB <= 0 || res.PeakRSSMB <= 0 {
					t.Errorf("traced=%t: attempted %d, wall %g s, setup %g s, alloc %g MB, peak RSS %g MB",
						traced, res.Attempted, res.WallS, res.SetupS, res.AllocMB, res.PeakRSSMB)
				}
				for _, d := range details[w.name] {
					if res.Detail[d.Name] <= 0 {
						t.Errorf("traced=%t: detail %s = %g", traced, d.Name, res.Detail[d.Name])
					}
				}
				if traced && (res.Counters["sim.events"] <= 0 || len(res.Spans) == 0) {
					t.Errorf("traced: %g events, %d spans", res.Counters["sim.events"], len(res.Spans))
				}
				digests = append(digests, res.Digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("tracing changed the output: %s untraced, %s traced", digests[0], digests[1])
			}
		})
	}
}

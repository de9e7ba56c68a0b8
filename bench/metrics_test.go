package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	all := append(append([]metricDef(nil), endToEnd...), perLayer...)
	all = append(all, peakRSS, failedShare)
	for _, ds := range details {
		all = append(all, ds...)
	}
	for _, d := range all {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for w, ds := range details {
		names := map[string]bool{peakRSS.Name: true, failedShare.Name: true}
		for _, d := range endToEnd {
			names[d.Name] = true
		}
		for _, d := range ds {
			if names[d.Name] {
				t.Errorf("%s: metric %s is defined twice", w, d.Name)
			}
			names[d.Name] = true
		}
	}
}

// benchmarkDef is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkDef struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readBenchmarkDef(t *testing.T) benchmarkDef {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", what, len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		w := want[i]
		w.Floor = 0 // BENCHMARK.json bounds are shares only
		if got[i] != w {
			t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", what, i, got[i], want[i])
		}
	}
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	def := readBenchmarkDef(t)
	sameDefs(t, "end_to_end", def.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

// Every metric of BENCHMARK.json reaches the last output line with its
// unit: the end-to-end ones from an untraced run, the per-layer ones from
// a traced run.
func TestEveryBenchmarkMetricIsEmitted(t *testing.T) {
	def := readBenchmarkDef(t)
	rep := repResult{SetupS: 0.1, WallS: 2, AllocMB: 100, PeakRSSMB: 40,
		Detail: map[string]float64{}, Counters: map[string]float64{"sim.events": 1e6}, Attempted: 3, Digest: "d"}
	for _, trace := range []bool{false, true} {
		wr := &workloadRuns{untraced: []repResult{rep, rep}, cpu: nil}
		if trace {
			wr.traced = []repResult{rep}
		}
		res := aggregate("building", 2, wr)
		if len(res.CheckFailures) > 0 {
			t.Fatalf("check failures on identical repetitions: %v", res.CheckFailures)
		}
		o := options{workloads: []string{"building"}, trace: trace}
		line := contractLine(o, &resultDoc{Correct: true, Workloads: map[string]*workloadResult{"building": res}})
		b, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]valueUnit
		}
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		want := def.EndToEnd
		if trace {
			want = def.PerLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace=%t: %d metrics emitted, BENCHMARK.json lists %d", trace, len(got.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%t: metric %s emitted as %+v (present %t), want unit %s", trace, d.Name, m, ok, d.Unit)
			}
		}
		if got.Attempted != 3*(len(wr.untraced)+len(wr.traced)) || got.Failed != 0 || !got.Correct {
			t.Errorf("trace=%t: correct %t, attempted %d, failed %d", trace, got.Correct, got.Attempted, got.Failed)
		}
	}
}

// A run reports its shortest set-up and its highest peak RSS, and the
// median of the rest.
func TestAggregateValues(t *testing.T) {
	var reps []repResult
	for _, x := range []float64{3, 1, 2} {
		reps = append(reps, repResult{SetupS: x, AllocMB: 10 * x, PeakRSSMB: 100 * x, Attempted: 1, Digest: "d"})
	}
	res := aggregate("building", 2, &workloadRuns{untraced: reps})
	want := map[string]float64{"setup_s": 1, "alloc_mb": 20, "peak_rss_mb": 300, "failed_share": 0}
	for name, v := range want {
		if got := res.Metrics[name].Value; got != v {
			t.Errorf("%s: %g, want %g", name, got, v)
		}
	}
}

// A repetition whose output differs from the others fails every operation
// of the workload.
func TestDigestMismatchFailsEveryOp(t *testing.T) {
	a := repResult{WallS: 1, Attempted: 10, Digest: "a"}
	b := a
	b.Digest = "b"
	res := aggregate("city", 2, &workloadRuns{untraced: []repResult{a, b}})
	if len(res.CheckFailures) == 0 || res.Failed != res.Attempted || res.Attempted != 20 {
		t.Fatalf("mismatched digests: failures %v, attempted %d, failed %d", res.CheckFailures, res.Attempted, res.Failed)
	}
	if got := res.Metrics[failedShare.Name].Value; got != 1 {
		t.Errorf("mismatched digests: failed share %g, want 1", got)
	}
}

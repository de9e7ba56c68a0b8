package campaign

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"macaw/internal/experiments"
	"macaw/internal/metrics"
)

// sparesManifest is a campaign of several tables and seeds whose jobs run
// two at a time, every run taking over storage another job's runs
// released.
const sparesManifest = `{"name": "spares", "total_s": 3, "warmup_s": 0.5, "runs": [
	{"table": "table10", "seeds": [1, 2]},
	{"table": "table1", "seeds": [1, 2]},
	{"table": "table3", "seeds": [4]},
	{"table": "table9", "seeds": [5, 6]}]}`

// TestSparesCampaignJobs runs a campaign on two workers (one on a
// single-CPU host), so jobs of different tables build their networks
// through experiments' one core.Spares at the same time, and requires
// every job's tables and metrics documents to equal those of its runs on
// fresh networks: a RunConfig that never went through ForTable, whose run
// labels lack the table prefix. Run it under the race detector.
func TestSparesCampaignJobs(t *testing.T) {
	m, err := DecodeManifest(strings.NewReader(sparesManifest))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()
	c, _, err := eng.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	results := c.settledPrefix()
	if len(results) != len(c.Jobs) {
		t.Fatalf("%d of %d jobs settled", len(results), len(c.Jobs))
	}
	for i, j := range c.Jobs {
		got, err := results[i].decode()
		if err != nil {
			t.Fatal(err)
		}
		if got.Err != "" {
			t.Fatalf("%s seed %d failed: %s", j.Spec, j.Seed, got.Err)
		}
		id := strings.TrimPrefix(j.Spec, "table:")
		g, ok := experiments.Lookup(id)
		if !ok {
			t.Fatalf("no generator %s", id)
		}
		sink := metrics.NewSink()
		cfg := experiments.RunConfig{Total: m.Total(), Warmup: m.Warmup(), Seed: j.Seed, Metrics: sink}
		if want := g.Run(cfg).Render(); len(got.Tables) != 1 || got.Tables[0].Text != want {
			t.Errorf("%s seed %d: tables differ from fresh networks:\n%v\nwant:\n%s", j.Spec, j.Seed, got.Tables, want)
		}
		labels := sink.Labels()
		if len(got.Metrics) != len(labels) {
			t.Errorf("%s seed %d: %d metrics documents, want %d", j.Spec, j.Seed, len(got.Metrics), len(labels))
		}
		for _, label := range labels {
			want, err := json.Marshal(sink.Run(label))
			if err != nil {
				t.Fatal(err)
			}
			if doc := got.Metrics[id+"/"+label]; !bytes.Equal(doc, want) {
				t.Errorf("%s seed %d: metrics for %s differ from a fresh network's", j.Spec, j.Seed, label)
			}
		}
	}
}

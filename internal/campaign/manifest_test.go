package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
)

// validManifest is the well-formed document the decode tests perturb.
const validManifest = `{
  "name": "smoke",
  "total_s": 2,
  "warmup_s": 0.5,
  "runs": [
    {"table": "table9", "seeds": [1, 2]},
    {"chaos": true, "seeds": [3]},
    {"sweep": "backoff.max=16,32", "seeds": [1]}
  ]
}`

func TestDecodeManifestValid(t *testing.T) {
	m, err := DecodeManifest(strings.NewReader(validManifest))
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	jobs := m.Jobs()
	want := []Job{
		{"table:table9", 1}, {"table:table9", 2},
		{"chaos", 3},
		{"sweep:backoff.max=16,32", 1},
	}
	if len(jobs) != len(want) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		if j != want[i] {
			t.Errorf("job %d = %+v, want %+v", i, j, want[i])
		}
	}
}

func TestDecodeManifestFailsClosed(t *testing.T) {
	cases := []struct {
		name, body string
		field      string // the ManifestError field that must be named
	}{
		{"empty body", ``, "(document)"},
		{"not json", `{"total_s": `, "(document)"},
		{"unknown field", `{"total_s": 2, "warmup_s": 0.5, "bogus": 1, "runs": [{"table": "table9", "seeds": [1]}]}`, "(document)"},
		{"trailing garbage", validManifest + `{"again": true}`, "(document)"},
		{"zero total", `{"total_s": 0, "warmup_s": 0, "runs": [{"table": "table9", "seeds": [1]}]}`, "total_s"},
		{"negative warmup", `{"total_s": 2, "warmup_s": -1, "runs": [{"table": "table9", "seeds": [1]}]}`, "warmup_s"},
		{"warmup >= total", `{"total_s": 2, "warmup_s": 2, "runs": [{"table": "table9", "seeds": [1]}]}`, "warmup_s"},
		{"no runs", `{"total_s": 2, "warmup_s": 0.5, "runs": []}`, "runs"},
		{"spec names nothing", `{"total_s": 2, "warmup_s": 0.5, "runs": [{"seeds": [1]}]}`, "runs[0]"},
		{"spec names two families", `{"total_s": 2, "warmup_s": 0.5, "runs": [{"table": "table9", "chaos": true, "seeds": [1]}]}`, "runs[0]"},
		{"unknown table", `{"total_s": 2, "warmup_s": 0.5, "runs": [{"table": "table99", "seeds": [1]}]}`, "runs[0].table"},
		{"bad sweep spec", `{"total_s": 2, "warmup_s": 0.5, "runs": [{"sweep": "nope=1", "seeds": [1]}]}`, "runs[0].sweep"},
		{"warm sweep at warmup 0", `{"total_s": 2, "warmup_s": 0, "runs": [{"table": "table9", "seeds": [1]}, {"sweep": "backoff.max=16,32", "seeds": [1]}]}`, "runs[1].sweep"},
		{"no seeds", `{"total_s": 2, "warmup_s": 0.5, "runs": [{"table": "table9", "seeds": []}]}`, "runs[0].seeds"},
		{"duplicate seed", `{"total_s": 2, "warmup_s": 0.5, "runs": [{"table": "table9", "seeds": [4, 4]}]}`, "runs[0].seeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeManifest(strings.NewReader(tc.body))
			if err == nil {
				t.Fatal("decode succeeded; want a *ManifestError")
			}
			var me *ManifestError
			if !errors.As(err, &me) {
				t.Fatalf("error is %T (%v), want *ManifestError", err, err)
			}
			if me.Field != tc.field {
				t.Errorf("error names field %q, want %q (%v)", me.Field, tc.field, me)
			}
		})
	}
}

// The campaign ID is content-derived: byte-different manifests that decode
// to the same document share it, any semantic change moves it, and the name
// participates (so a rename forces a fresh campaign) while job cache keys
// ignore it (so the renamed campaign is served from cache).
func TestManifestIdentity(t *testing.T) {
	base, err := DecodeManifest(strings.NewReader(validManifest))
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := DecodeManifest(strings.NewReader(strings.Replace(
		validManifest, `"name": "smoke",`, "", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if base.ID() == reordered.ID() {
		t.Error("dropping the name did not change the campaign ID")
	}
	renamed := *base
	renamed.Name = "smoke-again"
	if renamed.ID() == base.ID() {
		t.Error("renaming did not change the campaign ID")
	}
	for i, j := range base.Jobs() {
		if got, want := renamed.jobKey(j), base.jobKey(j); got != want {
			t.Errorf("job %d cache key moved with the campaign name: %q != %q", i, got, want)
		}
	}
	faster := *base
	faster.TotalS = 3
	if faster.ID() == base.ID() {
		t.Error("changing total_s did not change the campaign ID")
	}
	if faster.jobKey(faster.Jobs()[0]) == base.jobKey(base.Jobs()[0]) {
		t.Error("changing total_s did not change the job cache key")
	}
}

// Encode/DecodeManifest round-trips the document and preserves identity.
func TestManifestEncodeRoundTrip(t *testing.T) {
	m, err := DecodeManifest(strings.NewReader(validManifest))
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeManifest(strings.NewReader(string(m.Encode())))
	if err != nil {
		t.Fatalf("re-decoding Encode output: %v", err)
	}
	if back.ID() != m.ID() {
		t.Errorf("round trip moved the campaign ID: %q != %q", back.ID(), m.ID())
	}
	if string(back.Encode()) != string(m.Encode()) {
		t.Error("Encode is not a fixed point across one round trip")
	}
}

// resultDigests pins every results version to the SHA-256 of one short
// job's result line — table1, seed 1, total_s 2, warmup_s 0.5 — which
// holds the table's rendered text and its metrics documents.
var resultDigests = map[int]string{
	1: "4e81fa6af388576aad16ff51ced9e092a19afe36ca968d5fa52c77202161ffaa",
}

// TestResultsVersionPinsOutput fails when a job's rendered output changes
// while resultsVersion stays put, which would let macawd serve results
// cached by an older build as this build's. On a deliberate output change,
// bump resultsVersion and pin the new digest under the new version.
func TestResultsVersionPinsOutput(t *testing.T) {
	probeManifest := &Manifest{TotalS: 2, WarmupS: 0.5}
	probeJob := Job{Spec: "table:table1", Seed: 1}
	res := probeManifest.execute(probeJob)
	l, err := res.decode()
	if err != nil || len(l.Tables) != 1 || len(l.Metrics) == 0 {
		t.Fatalf("probe job rendered %d tables and %d metrics documents (err %v), want one table and its metrics", len(l.Tables), len(l.Metrics), err)
	}
	for v := 1; v <= resultsVersion; v++ {
		if resultDigests[v] == "" {
			t.Errorf("results version %d has no pinned digest", v)
		}
	}
	sum := sha256.Sum256(res.line)
	got := hex.EncodeToString(sum[:])
	if want := resultDigests[resultsVersion]; got != want {
		t.Fatalf("%s seed %d renders digest %s, but results version %d is pinned to %s: "+
			"output changed, so bump resultsVersion and pin the new digest under it",
			probeJob.Spec, probeJob.Seed, got, resultsVersion, want)
	}
}

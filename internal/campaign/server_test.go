package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"macaw/internal/experiments"
	"macaw/internal/metrics"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// tinyManifest is a one-job campaign that simulates in well under a second.
const tinyManifest = `{"name": "tiny", "total_s": 2, "warmup_s": 0.5, "runs": [{"table": "table9", "seeds": [5]}]}`

// newTestServer starts an engine rooted in a fresh temp dir behind an
// httptest server. The engine drains on cleanup.
func newTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	eng, err := NewEngine(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ts := httptest.NewServer(NewServer(eng))
	t.Cleanup(func() {
		ts.Close()
		eng.Drain()
	})
	return eng, ts
}

// post submits body and decodes the JSON reply into out, asserting the
// status code.
func post(t *testing.T, url, body string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s = %d, want %d (body %s)", url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s reply %q: %v", url, raw, err)
		}
	}
}

// get fetches url and returns the body, asserting the status code.
func get(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d (body %s)", url, resp.StatusCode, wantCode, raw)
	}
	return raw
}

func TestSubmitRunsToCompletion(t *testing.T) {
	_, ts := newTestServer(t)
	var rep submitReply
	post(t, ts.URL+"/campaigns", tinyManifest, http.StatusAccepted, &rep)
	if !rep.Created || rep.Jobs != 1 {
		t.Fatalf("submit reply = %+v, want created with 1 job", rep)
	}
	// wait=1 blocks until the campaign settles.
	jsonl := get(t, ts.URL+"/campaigns/"+rep.ID+"/results?wait=1", http.StatusOK)
	lines := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("got %d result lines, want 1:\n%s", len(lines), jsonl)
	}
	var line struct {
		Spec   string `json:"spec"`
		Seed   int64  `json:"seed"`
		Err    string `json:"error"`
		Tables []struct{ ID, Text string }
	}
	if err := json.Unmarshal(lines[0], &line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if line.Spec != "table:table9" || line.Seed != 5 || line.Err != "" {
		t.Fatalf("result line = %+v", line)
	}

	var st Status
	if err := json.Unmarshal(get(t, ts.URL+"/campaigns/"+rep.ID, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "completed" || st.Done != 1 || st.CacheHits != 0 {
		t.Fatalf("status = %+v, want completed/1 done/0 hits", st)
	}
}

// Resubmitting the identical manifest returns the existing campaign;
// resubmitting under a new name creates a fresh campaign served entirely
// from the content-addressed cache, with a byte-identical result stream.
func TestResubmissionHitsCache(t *testing.T) {
	_, ts := newTestServer(t)
	var first submitReply
	post(t, ts.URL+"/campaigns", tinyManifest, http.StatusAccepted, &first)
	stream1 := get(t, ts.URL+"/campaigns/"+first.ID+"/results?wait=1", http.StatusOK)

	var again submitReply
	post(t, ts.URL+"/campaigns", tinyManifest, http.StatusOK, &again)
	if again.Created || again.ID != first.ID {
		t.Fatalf("identical resubmission = %+v, want existing id %s", again, first.ID)
	}

	renamed := strings.Replace(tinyManifest, `"tiny"`, `"tiny-rerun"`, 1)
	var fresh submitReply
	post(t, ts.URL+"/campaigns", renamed, http.StatusAccepted, &fresh)
	if fresh.ID == first.ID {
		t.Fatal("renamed campaign kept the old id")
	}
	stream2 := get(t, ts.URL+"/campaigns/"+fresh.ID+"/results?wait=1", http.StatusOK)
	if !bytes.Equal(stream1, stream2) {
		t.Errorf("cache-served stream differs from fresh stream:\n%s\nvs\n%s", stream1, stream2)
	}
	var st Status
	if err := json.Unmarshal(get(t, ts.URL+"/campaigns/"+fresh.ID, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != st.Jobs || st.Done != st.Jobs {
		t.Fatalf("renamed campaign status = %+v, want every job a cache hit", st)
	}
}

func TestMalformedSubmissionsFailClosed(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"not json":      `{"total_s"`,
		"unknown field": `{"total_s": 2, "warmup_s": 0.5, "zzz": 1, "runs": [{"table": "table9", "seeds": [1]}]}`,
		"unknown table": `{"total_s": 2, "warmup_s": 0.5, "runs": [{"table": "nope", "seeds": [1]}]}`,
		"no seeds":      `{"total_s": 2, "warmup_s": 0.5, "runs": [{"table": "table9", "seeds": []}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, raw)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not {\"error\": ...}", raw)
			}
			if !strings.Contains(e.Error, "campaign manifest") {
				t.Errorf("error %q does not read as a typed manifest error", e.Error)
			}
		})
	}
}

func TestUnknownCampaignIs404(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.URL+"/campaigns/ffffffffffffffff", http.StatusNotFound)
	get(t, ts.URL+"/campaigns/ffffffffffffffff/results", http.StatusNotFound)
	get(t, ts.URL+"/campaigns/ffffffffffffffff/metrics", http.StatusNotFound)
}

func TestCancelStopsPendingJobs(t *testing.T) {
	_, ts := newTestServer(t)
	// Many seeds on a 2-worker pool: some jobs are still queued when the
	// cancel lands.
	man := `{"total_s": 30, "warmup_s": 5, "runs": [{"table": "table9", "seeds": [1,2,3,4,5,6,7,8,9,10,11,12]}]}`
	var rep submitReply
	post(t, ts.URL+"/campaigns", man, http.StatusAccepted, &rep)
	var st Status
	post(t, ts.URL+"/campaigns/"+rep.ID+"/cancel", "", http.StatusOK, &st)
	get(t, ts.URL+"/campaigns/"+rep.ID+"/results?wait=1", http.StatusOK)
	if err := json.Unmarshal(get(t, ts.URL+"/campaigns/"+rep.ID, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" || st.Cancelled == 0 {
		t.Fatalf("status after cancel = %+v, want cancelled jobs", st)
	}
}

func TestDrainingRefusesSubmissions(t *testing.T) {
	eng, _ := newTestServer(t)
	srv := NewServer(eng)
	srv.SetDraining()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	post(t, ts.URL+"/campaigns", tinyManifest, http.StatusServiceUnavailable, nil)
	get(t, ts.URL+"/readyz", http.StatusServiceUnavailable)
	get(t, ts.URL+"/healthz", http.StatusOK)
}

// The campaign metrics document is byte-identical to what the equivalent
// direct run writes through metrics.Sink — the daemon serves the same
// result schema as `macawsim -metrics`.
func TestMetricsDocMatchesDirectSink(t *testing.T) {
	_, ts := newTestServer(t)
	var rep submitReply
	post(t, ts.URL+"/campaigns", tinyManifest, http.StatusAccepted, &rep)
	get(t, ts.URL+"/campaigns/"+rep.ID+"/results?wait=1", http.StatusOK)
	doc := get(t, ts.URL+"/campaigns/"+rep.ID+"/metrics?spec=table:table9&seed=5", http.StatusOK)

	sink := metrics.NewSink()
	cfg := experiments.RunConfig{
		Total: 2 * sim.Second, Warmup: sim.FromSeconds(0.5), Seed: 5, Metrics: sink,
	}
	g, _ := experiments.Lookup("table9")
	g.Run(cfg.ForTable("table9"))
	var want bytes.Buffer
	if err := sink.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want.Bytes()) {
		t.Errorf("campaign metrics doc differs from direct sink document (%d vs %d bytes)", len(doc), want.Len())
	}
}

// The text stream renders tables exactly as the direct generator does.
func TestTextResultsMatchDirectRender(t *testing.T) {
	_, ts := newTestServer(t)
	var rep submitReply
	post(t, ts.URL+"/campaigns", tinyManifest, http.StatusAccepted, &rep)
	got := get(t, ts.URL+"/campaigns/"+rep.ID+"/results?wait=1&format=text", http.StatusOK)

	cfg := experiments.RunConfig{Total: 2 * sim.Second, Warmup: sim.FromSeconds(0.5), Seed: 5}
	g, _ := experiments.Lookup("table9")
	want := g.Run(cfg.ForTable("table9")).Render() + "\n"
	if string(got) != want {
		t.Errorf("text stream:\n%sdiffers from direct render:\n%s", got, want)
	}
}

// A fresh engine over the same state directory resumes the persisted
// campaign entirely from the ledger: no simulation, every job a cache hit,
// and a byte-identical result stream — the restart-resume path in unit form.
func TestEngineRestartResumesFromLedger(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewEngine(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(strings.NewReader(tinyManifest))
	if err != nil {
		t.Fatal(err)
	}
	c, created, err := eng.Submit(m)
	if err != nil || !created {
		t.Fatalf("Submit = %v created=%t", err, created)
	}
	<-c.Done()
	var stream1 bytes.Buffer
	for _, r := range c.settledPrefix() {
		r.WriteJSONL(&stream1)
	}
	eng.Drain()

	eng2, err := NewEngine(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Drain()
	c2, ok := eng2.Campaign(c.ID)
	if !ok {
		t.Fatal("restarted engine did not reload the campaign record")
	}
	<-c2.Done()
	st := c2.Status()
	if st.State != "completed" || st.CacheHits != st.Jobs {
		t.Fatalf("resumed status = %+v, want completed entirely from cache", st)
	}
	var stream2 bytes.Buffer
	for _, r := range c2.settledPrefix() {
		r.WriteJSONL(&stream2)
	}
	if !bytes.Equal(stream1.Bytes(), stream2.Bytes()) {
		t.Error("resumed result stream differs from the original")
	}
}

// A cache hit serves the ledger's payload as it is: the result's line is the
// very slice the ledger holds, byte-equal to the fresh result, and streaming
// it allocates nothing.
func TestCachedResultServesStoredBytes(t *testing.T) {
	eng, err := NewEngine(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()
	submit := func(body string) *Campaign {
		t.Helper()
		m, err := DecodeManifest(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := eng.Submit(m)
		if err != nil {
			t.Fatal(err)
		}
		<-c.Done()
		return c
	}
	fresh := submit(tinyManifest)
	hit := submit(strings.Replace(tinyManifest, `"tiny"`, `"tiny-rerun"`, 1))
	if st := hit.Status(); st.CacheHits != 1 {
		t.Fatalf("renamed campaign status = %+v, want one cache hit", st)
	}
	res := hit.settledPrefix()[0]
	payload, ok := eng.cache.Get(hit.Man.jobKey(hit.Jobs[0]))
	if !ok || len(payload) == 0 || &res.line[0] != &payload[0] || len(res.line) != len(payload) {
		t.Fatal("the cache hit's line does not alias the ledger payload")
	}
	if !bytes.Equal(res.line, fresh.settledPrefix()[0].line) {
		t.Error("the cache hit's line differs from the fresh result's")
	}
	if n := statecheck.Mallocs(t, 100, func() { res.WriteJSONL(io.Discard) }); n != 0 {
		t.Errorf("WriteJSONL of a cached result allocates %d times, want 0", n)
	}

	// A payload that is not this job's line is refused.
	j := hit.Jobs[0]
	for _, other := range []Job{{j.Spec, j.Seed * 10}, {"table:table1", j.Seed}} {
		if _, ok := cachedResult(other, payload); ok {
			t.Errorf("job %+v accepted the line of job %+v", other, j)
		}
	}
	if _, ok := cachedResult(j, payload[:len(payload)-1]); ok {
		t.Error("a line cut short was accepted")
	}
	longer := fmt.Sprintf(`{"spec":%q,"seed":%d0,"tables":[]}`+"\n", j.Spec, j.Seed)
	if _, ok := cachedResult(j, []byte(longer)); ok {
		t.Errorf("job %+v accepted the line %q", j, longer)
	}
}

// A job that aborts deterministically (unresolvable layout is simulated
// here by an oracle-less panic path: an unknown generator snuck past
// validation is impossible, so use a sweep that fails in execution) is
// recorded as failed, uncached, and does not poison sibling jobs.
func TestJobFailureIsIsolated(t *testing.T) {
	eng, ts := newTestServer(t)
	// Two jobs: the failing one (cw.min above every DCF station's live
	// cw.max is rejected by ApplyDelta's validation at the barrier) and a
	// healthy sibling.
	man := `{"total_s": 2, "warmup_s": 0.5, "runs": [
	  {"sweep": "cw.min=1048576", "seeds": [1]},
	  {"table": "table9", "seeds": [5]}
	]}`
	var rep submitReply
	post(t, ts.URL+"/campaigns", man, http.StatusAccepted, &rep)
	jsonl := get(t, ts.URL+"/campaigns/"+rep.ID+"/results?wait=1", http.StatusOK)
	var st Status
	if err := json.Unmarshal(get(t, ts.URL+"/campaigns/"+rep.ID, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Failed != 1 || st.Done != 1 {
		t.Fatalf("status = %+v, want 1 failed + 1 done (stream:\n%s)", st, jsonl)
	}
	if eng.CacheLen() != 1 {
		t.Errorf("cache holds %d entries, want 1 (failures must not be cached)", eng.CacheLen())
	}
	if !strings.Contains(string(jsonl), `"error"`) {
		t.Errorf("failed job's line carries no error:\n%s", jsonl)
	}
}

// Runner.Do honours context cancellation while queued and converts run
// panics into typed failures without latching the pool.
func TestRunnerDo(t *testing.T) {
	r := experiments.NewRunner(1)
	err := r.Do(context.Background(), "tab", 7, func() { panic("boom") })
	var rf *experiments.RunFailure
	if !errors.As(err, &rf) {
		t.Fatalf("Do after panic = %v, want *RunFailure", err)
	}
	if rf.Table != "tab" || rf.Seed != 7 {
		t.Errorf("failure identity = %s/%d, want tab/7", rf.Table, rf.Seed)
	}
	if r.Failure() != nil {
		t.Error("Do latched the pool's failure state")
	}
	if err := r.Do(context.Background(), "tab", 8, func() {}); err != nil {
		t.Errorf("pool unusable after a Do panic: %v", err)
	}

	// A cancelled context while queued returns ctx.Err without running fn.
	block := make(chan struct{})
	started := make(chan struct{})
	go r.Do(context.Background(), "tab", 9, func() { close(started); <-block })
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := r.Do(ctx, "tab", 10, func() { ran = true }); err != context.Canceled {
		t.Errorf("queued Do under a dead context = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("fn ran despite the cancelled context")
	}
	close(block)
}

package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"macaw/internal/mac"
	"macaw/internal/metrics"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// encodeLine renders v as one JSON line with HTML characters unescaped,
// as an encoding/json Encoder after SetEscapeHTML(false) writes it: the
// form result lines had when encoding/json wrote them.
func encodeLine(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// referenceLine is job j's line as encoding/json writes it, each run's
// document by json.Marshal and the line by encodeLine; or, when a
// document cannot be encoded, the failure appendLine must panic with.
func referenceLine(j Job, msg string, tables []RenderedTable, sink *metrics.Sink) ([]byte, string) {
	l := resultLine{Spec: j.Spec, Seed: j.Seed, Err: msg, Tables: tables}
	if sink != nil {
		l.Metrics = make(map[string]json.RawMessage)
		for _, label := range sink.Labels() {
			doc, err := json.Marshal(sink.Run(label))
			if err != nil {
				return nil, fmt.Sprintf("campaign: encoding metrics for %s: %v", label, err)
			}
			l.Metrics[label] = doc
		}
	}
	return encodeLine(l), ""
}

// randomText returns up to six pieces of text: ASCII, the HTML characters,
// quotes, U+2028 and U+2029, non-ASCII runes, invalid UTF-8 and, with
// controls, control characters.
func randomText(rng *rand.Rand, controls bool) string {
	parts := []string{"a", "Z", "/", " ", "<", ">", "&", "\"", "\\", "\u2028", "\u2029", "é", "雨", "🙂", "\xff", "\xe2\x80"}
	if controls {
		parts = append(parts, "\n", "\t", "\x00", "\x1b", "\x7f", "\r\n")
	}
	var b strings.Builder
	for k := rng.Intn(7); k > 0; k-- {
		b.WriteString(parts[rng.Intn(len(parts))])
	}
	return b.String()
}

// randomSink returns a sink of up to four runs under random labels, whose
// stations, registries and histograms are now and then nil, with a NaN in
// one run one time in eight.
func randomSink(rng *rand.Rand) *metrics.Sink {
	sink := metrics.NewSink()
	for k := rng.Intn(5); k > 0; k-- {
		rm := &metrics.RunMetrics{
			Seed: rng.Int63(), TotalS: rng.Float64() * 500, WarmupS: rng.Float64(),
			Engine:   metrics.EngineMetrics{EventsFired: rng.Uint64(), MaxEventQueue: rng.Intn(1000)},
			Stations: map[string]*metrics.StationMetrics{},
			Streams:  map[string]*metrics.StreamMetrics{},
		}
		for n := rng.Intn(4); n > 0; n-- {
			st := &metrics.StationMetrics{MACStats: mac.Stats{RTSSent: rng.Intn(99), Drops: rng.Intn(3)}}
			if rng.Intn(4) != 0 {
				st.Registry = metrics.NewRegistry()
				st.Counter(randomText(rng, false)).Add(rng.Int63n(1000))
				st.Gauge("queue_depth").Set(float64(rng.Intn(64)))
				st.Histogram("backoff", metrics.BackoffBuckets()).Observe(float64(rng.Intn(70)))
				if rng.Intn(4) == 0 {
					st.Histograms[randomText(rng, false)] = nil
				}
				s := st.TimeSeries("backoff_to_" + randomText(rng, false))
				for i := rng.Intn(5); i > 0; i-- {
					s.Observe(sim.Time(rng.Int63n(int64(sim.Second))), float64(rng.Intn(64)))
				}
			}
			if rng.Intn(2) == 0 {
				st.FSMResidencyS = map[string]float64{"IDLE": rng.Float64(), randomText(rng, false): rng.Float64()}
			}
			if rng.Intn(8) == 0 {
				st = nil
			}
			rm.Stations[randomText(rng, false)] = st
		}
		for n := rng.Intn(3); n > 0; n-- {
			sm := &metrics.StreamMetrics{Transport: randomText(rng, false), PPS: rng.Float64() * 64, Offered: rng.Intn(99)}
			if rng.Intn(2) == 0 {
				sm.Delay = metrics.NewHistogram(metrics.DelayBuckets())
				sm.Delay.Observe(rng.Float64())
			}
			rm.Streams[randomText(rng, false)] = sm
		}
		if rng.Intn(8) == 0 {
			rm.TotalS = math.NaN()
		}
		if rng.Intn(8) == 0 {
			rm = nil
		}
		sink.Add(randomText(rng, false), rm)
	}
	return sink
}

// TestAppendLineMatchesEncodingJSON compares the result lines appendLine
// writes with encoding/json's, byte for byte: failure lines, sweep-like
// lines of several tables, and table lines with random metrics sinks,
// whose labels, station names and table text hold HTML characters,
// U+2028, non-ASCII runes, invalid UTF-8 and control characters. A run
// holding a NaN must fail the line with the message the encoding/json
// path failed it with.
func TestAppendLineMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	failures := 0
	for trial := 0; trial < 400; trial++ {
		j := Job{Spec: []string{"table:table2", "chaos", "sweep:cw.min=8,16", randomText(rng, true)}[rng.Intn(4)],
			Seed: rng.Int63() - rng.Int63()}
		var msg string
		var tables []RenderedTable
		var sink *metrics.Sink
		switch rng.Intn(4) {
		case 0:
			msg = randomText(rng, true)
		case 1:
			for k := rng.Intn(3); k > 0; k-- {
				tables = append(tables, RenderedTable{ID: randomText(rng, false), Text: randomText(rng, true)})
			}
		default:
			tables = []RenderedTable{{ID: randomText(rng, false), Text: randomText(rng, true)}}
			sink = randomSink(rng)
		}
		want, wantFailure := referenceLine(j, msg, tables, sink)
		got, failure := func() (line []byte, failure string) {
			defer func() {
				if p := recover(); p != nil {
					failure = fmt.Sprint(p)
				}
			}()
			return appendLine([]byte("x"), j, msg, tables, sink)[1:], ""
		}()
		if failure != wantFailure || !bytes.Equal(got, want) {
			t.Fatalf("line\n%s (failure %q)\nwant\n%s (failure %q)", got, failure, want, wantFailure)
		}
		if failure != "" {
			failures++
		}
	}
	if failures == 0 {
		t.Error("no line failed; the NaN case went untested")
	}
}

// TestResultScratchReuse runs two jobs at once and requires their lines in
// scratch buffers of their own; hands one buffer back, as the engine does
// once the ledger holds the line, and requires the next job to write in it
// while both earlier Results keep their bytes. It then runs a campaign of
// more jobs than workers and requires every fresh Result to hold the
// ledger's copy of its line and no scratch buffer, and a cache hit to
// allocate only its Result. Run it under the race detector.
func TestResultScratchReuse(t *testing.T) {
	m := &Manifest{TotalS: 1, WarmupS: 0.2}
	jobs := []Job{{"table:table9", 1}, {"table:table1", 2}, {"table:table9", 3}}
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		want[i] = bytes.Clone(m.execute(j).line)
	}
	res := make([]*Result, len(jobs))
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i] = m.execute(jobs[i])
		}()
	}
	wg.Wait()
	if res[0].scratch == nil || res[0].scratch == res[1].scratch || &res[0].line[0] == &res[1].line[0] {
		t.Fatal("two jobs running at once wrote their lines in one scratch buffer")
	}
	handed := res[0].scratch
	res[0].keep(bytes.Clone(res[0].line))
	res[2] = m.execute(jobs[2])
	if res[2].scratch != handed {
		t.Error("the next job did not write its line in the scratch buffer handed back")
	}
	for i, r := range res {
		if !bytes.Equal(r.line, want[i]) {
			t.Errorf("%s seed %d: line changed after its scratch buffer was reused", jobs[i].Spec, jobs[i].Seed)
		}
	}

	eng, err := NewEngine(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()
	man, err := DecodeManifest(strings.NewReader(`{"total_s": 1, "warmup_s": 0.2, "runs": [{"table": "table9", "seeds": [1, 2, 3, 4, 5]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := eng.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	for i, r := range c.settledPrefix() {
		stored, ok := eng.cache.Get(man.jobKey(c.Jobs[i]))
		if !ok || r.scratch != nil || &r.line[0] != &stored[0] || len(r.line) != len(stored) {
			t.Errorf("job %d's Result does not hold the ledger's copy of its line", i)
		}
	}
	j := c.Jobs[0]
	payload, _ := eng.cache.Get(man.jobKey(j))
	if n := statecheck.Mallocs(t, 100, func() { cachedResult(j, payload) }); n > 100 {
		t.Errorf("cachedResult allocates %d times per 100 hits, want only its Result", n)
	}
}

package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"macaw/internal/core"
	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// TestCollectorHooksAllocationFree pins the instrument handles: once a
// station's instruments are resolved, no hook allocates, so an enabled
// collector costs what counting costs.
func TestCollectorHooksAllocationFree(t *testing.T) {
	n := core.NewNetwork(1)
	st := n.AddStation("A", geom.V(0, 0, 0), core.MACAWFactory(macaw.DefaultOptions()))
	obs := NewCollector().Observer(st)
	withBackoff := &frame.Frame{Type: frame.RTS, Dst: 2, LocalBackoff: 4}
	bare := &frame.Frame{Type: frame.DATA, Dst: 2, LocalBackoff: -1}
	// Past its cap the backoff series decimates in place, so its growth
	// is done before the hooks are measured.
	for i := 0; i <= 2*seriesCap; i++ {
		obs.ObserveTx(withBackoff)
	}
	for _, h := range []struct {
		name string
		hook func()
	}{
		{"ObserveTx/backoff", func() { obs.ObserveTx(withBackoff) }},
		{"ObserveTx/bare", func() { obs.ObserveTx(bare) }},
		{"ObserveRx", func() { obs.ObserveRx(bare) }},
		{"ObserveQueue/push", func() { obs.ObserveQueue("push", 2, 1) }},
		{"ObserveQueue/pop", func() { obs.ObserveQueue("pop", 2, 0) }},
		{"ObserveQueue/drop", func() { obs.ObserveQueue("drop", 2, 0) }},
		{"ObserveTimer/arm", func() { obs.ObserveTimer(sim.Second) }},
		{"ObserveTimer/cancel", func() { obs.ObserveTimer(-1) }},
		{"ObserveState", func() { obs.ObserveState("IDLE", "CONTEND"); obs.ObserveState("CONTEND", "IDLE") }},
		{"ObserveDeliver", func() { obs.ObserveDeliver(bare) }},
		{"ObserveRetry", func() { obs.ObserveRetry(2) }},
		{"ObserveDrop", func() { obs.ObserveDrop(2, mac.DropRetries) }},
	} {
		h.hook() // resolve the hook's instruments
		if got := statecheck.Mallocs(t, 100, h.hook); got != 0 {
			t.Errorf("%s: %d mallocs per 100 calls on a resolved station, want 0", h.name, got)
		}
	}
}

// TestCollectorHandlesLazy checks that a handle resolves into the same
// registry instrument a by-name lookup finds, that an instrument no hook
// touched stays absent, and that a frame type past the handle array still
// counts under its name.
func TestCollectorHandlesLazy(t *testing.T) {
	n := core.NewNetwork(1)
	st := n.AddStation("A", geom.V(0, 0, 0), core.MACAWFactory(macaw.DefaultOptions()))
	sc := NewCollector().Observer(st).(*stationCollector)
	sc.ObserveTx(&frame.Frame{Type: frame.RTS, LocalBackoff: -1})
	sc.ObserveTx(&frame.Frame{Type: frame.RTS, LocalBackoff: -1})
	sc.ObserveRx(&frame.Frame{Type: frame.Type(200)})
	sc.ObserveDrop(2, mac.DropReason("queue full"))
	for name, want := range map[string]int64{"tx_RTS": 2, "rx_Type(200)": 1, "drops_queue_full": 1} {
		if c := sc.reg.Counters[name]; c == nil || c.N != want {
			t.Errorf("counter %s = %v, want %d", name, c, want)
		}
	}
	for _, name := range []string{"rx_RTS", "tx_CTS", "deliver", "queue_push", "drops_retry_limit"} {
		if _, ok := sc.reg.Counters[name]; ok {
			t.Errorf("counter %s present though no hook fired it", name)
		}
	}
	if len(sc.reg.Gauges) != 0 || len(sc.reg.Histograms) != 0 {
		t.Errorf("instruments present though no hook fired them: %v %v", sc.reg.Gauges, sc.reg.Histograms)
	}
}

// TestMarshalersMatchEncodingJSON compares the Counter and Series
// marshalers, and WriteRuns's documents (see checkDocuments), with the
// encoding/json path they replace, byte for byte.
func TestMarshalersMatchEncodingJSON(t *testing.T) {
	checkDocuments(t)

	for _, v := range []int64{0, 1, -7, 1 << 40, math.MaxInt64, math.MinInt64} {
		want, _ := json.Marshal(v)
		got, err := json.Marshal(&Counter{N: v})
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Counter{%d} = %s, %v; want %s", v, got, err, want)
		}
	}

	// seriesJSON is the form Series.MarshalJSON once built and handed to
	// encoding/json.
	type seriesJSON struct {
		Stride int64        `json:"stride"`
		Seen   int64        `json:"seen"`
		Points [][2]float64 `json:"points"`
	}
	viaEncodingJSON := func(s *Series) []byte {
		out := seriesJSON{Stride: s.stride, Seen: s.seen, Points: make([][2]float64, len(s.pts))}
		for i, p := range s.pts {
			out.Points[i] = [2]float64{p.T.Seconds(), p.V}
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	values := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 123.456, 1e20, 1e21, 1.5e300,
		-5e-324, -1e-7, -1e-6, -123.456, -1e20, -1e21, -1.5e300, 1.0 / 3, 64, math.MaxFloat64}
	for _, v := range values {
		s := &Series{}
		s.Observe(0, v)
		s.Observe(1, v) // 1 ns: 1e-9 s, the padded-exponent cleanup
		s.Observe(123*sim.Second+456*sim.Millisecond, v)
		s.Observe(math.MaxInt64, v)
		checkSeries(t, s, viaEncodingJSON(s))
	}
	checkSeries(t, &Series{}, viaEncodingJSON(&Series{}))
	decimated := &Series{MaxPoints: 8}
	for i := 0; i < 1000; i++ {
		decimated.Observe(sim.Time(i)*sim.Millisecond/3, float64(i)/7)
	}
	if decimated.stride == 1 {
		t.Fatal("series did not decimate")
	}
	checkSeries(t, decimated, viaEncodingJSON(decimated))

	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := &Series{}
		s.Observe(0, v)
		if b, err := json.Marshal(s); err == nil {
			t.Errorf("series holding %v marshalled to %s, want an error", v, b)
		}
	}
}

// randomLabel returns a label of up to six runes drawn from ASCII letters,
// the HTML characters encoding/json escapes, quotes, controls, non-ASCII
// runes and a byte that is not UTF-8.
func randomLabel(rng *rand.Rand) string {
	parts := []string{"a", "Z", "/", " ", "<", ">", "&", "\"", "\\", "\n", "\u2028", "é", "雨", "🙂", "\xff"}
	var b strings.Builder
	for k := rng.Intn(7); k > 0; k-- {
		b.WriteString(parts[rng.Intn(len(parts))])
	}
	return b.String()
}

// randomFloat returns a finite value from a range of magnitudes, both
// signs and both zeros, so numbers take each form encoding/json writes.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(rng.Intn(100))
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
}

// randomHistogram returns nil one time in four, else a histogram over
// random bounds, nil ones included, with random observations.
func randomHistogram(rng *rand.Rand) *Histogram {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return &Histogram{Sum: randomFloat(rng)}
	}
	h := NewHistogram(QueueBuckets()[:rng.Intn(5)])
	for k := rng.Intn(5); k > 0; k-- {
		h.Observe(randomFloat(rng))
	}
	return h
}

// randomStation returns a station snapshot with a random registry, a
// nil or empty one included, random residency and MAC counters; one in
// eight is nil.
func randomStation(rng *rand.Rand) *StationMetrics {
	if rng.Intn(8) == 0 {
		return nil
	}
	st := &StationMetrics{MACStats: mac.Stats{
		DataSent: rng.Intn(50), DataReceived: rng.Intn(50), RTSSent: rng.Intn(50),
		Retries: rng.Intn(9), Drops: rng.Intn(3), CTSSent: rng.Intn(50),
		DSSent: rng.Intn(50), ACKSent: rng.Intn(50), RRTSSent: rng.Intn(5),
	}}
	if rng.Intn(4) != 0 {
		reg := NewRegistry()
		for k := rng.Intn(4); k > 0; k-- {
			reg.Counter(randomLabel(rng)).N = rng.Int63n(1000) - 10
		}
		if rng.Intn(8) == 0 {
			reg.Counters[randomLabel(rng)] = nil
		}
		for k := rng.Intn(2); k > 0; k-- {
			reg.Gauge(randomLabel(rng)).Set(randomFloat(rng))
		}
		for k := rng.Intn(3); k > 0; k-- {
			reg.Histograms[randomLabel(rng)] = randomHistogram(rng)
		}
		for k := rng.Intn(3); k > 0; k-- {
			series := &Series{MaxPoints: 4}
			for n := rng.Intn(10); n > 0; n-- {
				series.Observe(sim.Time(rng.Int63n(int64(100*sim.Second))), randomFloat(rng))
			}
			reg.Series[randomLabel(rng)] = series
		}
		if rng.Intn(8) == 0 {
			reg.Series[randomLabel(rng)] = nil
		}
		st.Registry = reg
	}
	switch rng.Intn(3) {
	case 0:
		st.FSMResidencyS = map[string]float64{}
	case 1:
		st.FSMResidencyS = map[string]float64{randomLabel(rng): randomFloat(rng), "IDLE": rng.Float64()}
	}
	return st
}

// randomRun returns a RunMetrics with random stations and streams, under
// random labels, and now and then a nil station or stream map; one run in
// eight is nil.
func randomRun(rng *rand.Rand) *RunMetrics {
	if rng.Intn(8) == 0 {
		return nil
	}
	rm := &RunMetrics{
		Seed: rng.Int63() - rng.Int63(), TotalS: randomFloat(rng), WarmupS: randomFloat(rng),
		Engine: EngineMetrics{EventsFired: rng.Uint64(), MaxEventQueue: rng.Intn(1000)},
	}
	if rng.Intn(8) != 0 {
		rm.Stations = map[string]*StationMetrics{}
		for k := rng.Intn(4); k > 0; k-- {
			rm.Stations[randomLabel(rng)] = randomStation(rng)
		}
	}
	if rng.Intn(8) != 0 {
		rm.Streams = map[string]*StreamMetrics{}
		for k := rng.Intn(3); k > 0; k-- {
			var sm *StreamMetrics
			if rng.Intn(8) != 0 {
				sm = &StreamMetrics{
					Transport: randomLabel(rng), RatePPS: randomFloat(rng), PPS: randomFloat(rng),
					Offered: rng.Intn(99), Delivered: rng.Intn(99),
					MeanDelayS: randomFloat(rng), P95DelayS: randomFloat(rng), Delay: randomHistogram(rng),
				}
			}
			rm.Streams[randomLabel(rng)] = sm
		}
	}
	return rm
}

// checkDocuments compares whole metrics documents, as Sink.WriteJSON and
// the campaign's merged document write them, with what an encoding/json
// Encoder indenting by two spaces writes for the same map: a nil and an
// empty sink, and random sinks whose runs include nil ones, under labels
// with HTML characters, non-ASCII runes and invalid UTF-8. The raw
// documents keep their runs' HTML characters unescaped and their text
// spaced out, as a json.RawMessage may hold them. It compares each run's
// compact form, as a campaign result line holds it, with json.Marshal's.
func checkDocuments(t *testing.T) {
	viaEncodingJSON := func(runs any) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Runs any `json:"runs"`
		}{runs}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	check := func(name string, runs any, write func(w io.Writer) error) {
		t.Helper()
		var got bytes.Buffer
		if err := write(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := viaEncodingJSON(runs); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: document\n%s\nwant\n%s", name, got.Bytes(), want)
		}
	}
	check("nil sink", map[string]*RunMetrics(nil), (&Sink{}).WriteJSON)
	check("empty sink", map[string]*RunMetrics{}, NewSink().WriteJSON)
	check("nil raw", map[string]json.RawMessage(nil), func(w io.Writer) error {
		return WriteRuns(w, map[string]json.RawMessage(nil))
	})
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		sink := NewSink()
		raw := map[string]json.RawMessage{}
		for k := rng.Intn(6); k > 0; k-- {
			label, rm := randomLabel(rng), randomRun(rng)
			sink.Add(label, rm)
			want, err := json.Marshal(rm)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := rm.AppendJSON([]byte("[")); err != nil || string(got) != "["+string(want) {
				t.Fatalf("compact document = %s, %v; want [%s", got, err, want)
			}
			b, err := json.MarshalIndent(rm, " ", "   ")
			if err != nil {
				t.Fatal(err)
			}
			raw[label] = []byte(strings.NewReplacer(`\u003c`, "<", `\u003e`, ">", `\u0026`, "&").Replace(string(b)))
		}
		check("sink", sink.runs, sink.WriteJSON)
		check("raw", raw, func(w io.Writer) error { return WriteRuns(w, raw) })
	}
}

// checkSeries compares s's marshalled bytes with want.
func checkSeries(t *testing.T, s *Series, want []byte) {
	t.Helper()
	if got, err := json.Marshal(s); err != nil || !bytes.Equal(got, want) {
		t.Errorf("series = %s, %v; want %s", got, err, want)
	}
}

// floatSites returns a setter for every float the documents of rm write.
func floatSites(rm *RunMetrics) []func(float64) {
	sites := []func(float64){func(v float64) { rm.TotalS = v }, func(v float64) { rm.WarmupS = v }}
	hist := func(h *Histogram) {
		if h == nil {
			return
		}
		sites = append(sites, func(v float64) { h.Sum = v }, func(v float64) { h.Min = v }, func(v float64) { h.Max = v })
		for i := range h.Bounds {
			sites = append(sites, func(v float64) { h.Bounds[i] = v })
		}
	}
	for _, st := range rm.Stations {
		if st == nil {
			continue
		}
		if st.Registry != nil {
			for _, g := range st.Gauges {
				sites = append(sites, func(v float64) { g.Last = v }, func(v float64) { g.Max = v })
			}
			for _, h := range st.Histograms {
				hist(h)
			}
			for _, s := range st.Series {
				if s == nil {
					continue
				}
				for i := range s.pts {
					sites = append(sites, func(v float64) { s.pts[i].V = v })
				}
			}
		}
		for state := range st.FSMResidencyS {
			sites = append(sites, func(v float64) { st.FSMResidencyS[state] = v })
		}
	}
	for _, sm := range rm.Streams {
		if sm == nil {
			continue
		}
		sites = append(sites, func(v float64) { sm.PPS = v }, func(v float64) { sm.P95DelayS = v })
		hist(sm.Delay)
	}
	return sites
}

// TestDocumentsRefuseNonFinite plants NaN and the infinities, one or two
// at a time, among the floats of random runs, and requires both forms of
// the document to fail with the error encoding/json returns for the same
// run, and Sink.WriteJSON to have written the runs before the failing one
// and nothing of it.
func TestDocumentsRefuseNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 300; trial++ {
		rm := randomRun(rng)
		if rm == nil {
			continue
		}
		sites := floatSites(rm)
		for k := 1 + rng.Intn(2); k > 0; k-- {
			sites[rng.Intn(len(sites))](bad[rng.Intn(len(bad))])
		}
		_, want := json.Marshal(rm)
		if want == nil {
			t.Fatal("encoding/json accepted a run holding a non-finite float")
		}
		if _, err := rm.AppendJSON(nil); err == nil || err.Error() != want.Error() {
			t.Fatalf("compact document failed with %v, want %v", err, want)
		}

		sink := NewSink()
		for k := rng.Intn(4); k > 0; k-- {
			sink.Add(randomLabel(rng), randomRun(rng))
		}
		label := randomLabel(rng)
		sink.Add(label, rm)
		var got bytes.Buffer
		if err := sink.WriteJSON(&got); err == nil || err.Error() != want.Error() {
			t.Fatalf("document failed with %v, want %v", err, want)
		}
		// The document with the failing run left empty starts with what
		// was written, and goes on with the failing run. A failing first
		// run leaves nothing written, the document's opening included.
		sink.Add(label, nil)
		var whole bytes.Buffer
		if err := sink.WriteJSON(&whole); err != nil {
			t.Fatal(err)
		}
		quoted, _ := json.Marshal(label)
		rest, ok := bytes.CutPrefix(whole.Bytes(), got.Bytes())
		if got.Len() == 0 {
			rest, ok = bytes.CutPrefix(rest, []byte("{\n  \"runs\": {\n"))
		}
		if !ok || !bytes.HasPrefix(rest, append([]byte("    "+string(quoted)), ": null"...)) {
			t.Fatalf("failed document wrote\n%s\nwant the runs before %s of\n%s", got.Bytes(), quoted, whole.Bytes())
		}
	}
}

// TestFSMResidencyAcrossRestarts drives a station's collector through
// random state changes, zero-length stays and MAC restarts, and requires
// its fsm_residency_s to hold what a map keyed by state name adds up:
// every state entered, each restart carrying the totals on from IDLE.
func TestFSMResidencyAcrossRestarts(t *testing.T) {
	n := core.NewNetwork(1)
	st := n.AddStation("A", geom.V(0, 0, 0), core.MACAWFactory(macaw.DefaultOptions()))
	c := NewCollector()
	obs := c.Observer(st)
	want := map[string]sim.Duration{}
	cur, since := "IDLE", sim.Time(0)
	enter := func(to string) {
		want[cur] += n.Sim.Now() - since
		cur, since = to, n.Sim.Now()
	}
	rng := rand.New(rand.NewSource(7))
	states := []string{"IDLE", "CONTEND", "WFCTS", "WFDATA", "QUIET"}
	at := sim.Time(0)
	for i := 0; i < 300; i++ {
		at += sim.Time(rng.Int63n(int64(sim.Millisecond))) * sim.Time(rng.Intn(2))
		if rng.Intn(16) == 0 {
			n.Sim.At(at, func() { enter("IDLE"); obs = c.Observer(st) })
			continue
		}
		to := states[rng.Intn(len(states))]
		n.Sim.At(at, func() {
			from := cur
			enter(to)
			obs.ObserveState(from, to)
		})
	}
	n.Sim.Run(at + sim.Second)
	enter("")
	got := c.Snapshot(n, core.Results{}, 1).Stations["A"].FSMResidencyS
	wantS := make(map[string]float64, len(want))
	for state, d := range want {
		wantS[state] = d.Seconds()
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(wantS)
	if !bytes.Equal(a, b) {
		t.Errorf("fsm_residency_s = %s, want %s", a, b)
	}
	if r := c.Snapshot(n, core.Results{}, 1).Stations["A"].Counters["mac_restarts"]; r == nil || r.N == 0 {
		t.Error("no restart was driven")
	}
}

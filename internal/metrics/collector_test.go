package metrics

import (
	"bytes"
	"encoding/json"
	"math"
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
// marshalers with the encoding/json path they replace, byte for byte.
func TestMarshalersMatchEncodingJSON(t *testing.T) {
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

// checkSeries compares s's marshalled bytes with want.
func checkSeries(t *testing.T, s *Series, want []byte) {
	t.Helper()
	if got, err := json.Marshal(s); err != nil || !bytes.Equal(got, want) {
		t.Errorf("series = %s, %v; want %s", got, err, want)
	}
}

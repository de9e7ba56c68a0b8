package metrics

import (
	"fmt"
	"strings"

	"macaw/internal/core"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// Collector gathers per-station metrics for one simulation run through the
// passive mac.Observer hooks. Its Observer method matches
// core.MACObserverFactory, so it attaches with Network.AddMACObserver and
// composes with the conformance oracle. A collector belongs to exactly one
// network: runs are single-threaded, so it takes no locks.
type Collector struct {
	clock    *sim.Simulator
	stations map[string]*stationCollector
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{stations: make(map[string]*stationCollector)}
}

// Observer returns the station's collector as a mac.Observer. It is invoked
// once per MAC lifetime; a restarted station keeps accumulating into the
// same record, with the FSM residency interval reset to the rebooted
// engine's IDLE state.
func (c *Collector) Observer(st *core.Station) mac.Observer {
	if c.clock == nil {
		c.clock = st.Clock()
	}
	sc := c.stations[st.Name()]
	if sc == nil {
		sc = &stationCollector{
			c:         c,
			reg:       NewRegistry(),
			backoff:   make(map[frame.NodeID]*Series),
			residency: make(map[string]sim.Duration),
			cur:       "IDLE",
			since:     c.clock.Now(),
		}
		c.stations[st.Name()] = sc
	} else {
		sc.closeResidency(c.clock.Now())
		sc.cur = "IDLE"
		sc.reg.Counter("mac_restarts").Inc()
	}
	return sc
}

// stationCollector accumulates one station's metrics across MAC lifetimes.
type stationCollector struct {
	c       *Collector
	reg     *Registry
	backoff map[frame.NodeID]*Series

	// FSM residency bookkeeping: time spent in cur since 'since'.
	residency map[string]sim.Duration
	cur       string
	since     sim.Time
}

func (sc *stationCollector) closeResidency(now sim.Time) {
	sc.residency[sc.cur] += now - sc.since
	sc.since = now
}

func (sc *stationCollector) ObserveTx(f *frame.Frame) {
	sc.reg.Counter("tx_" + f.Type.String()).Inc()
	if f.LocalBackoff >= 0 {
		s := sc.backoff[f.Dst]
		if s == nil {
			s = &Series{}
			sc.backoff[f.Dst] = s
		}
		s.Observe(sc.c.clock.Now(), float64(f.LocalBackoff))
		sc.reg.Histogram("backoff", BackoffBuckets()).Observe(float64(f.LocalBackoff))
	}
}

func (sc *stationCollector) ObserveRx(f *frame.Frame) {
	sc.reg.Counter("rx_" + f.Type.String()).Inc()
}

func (sc *stationCollector) ObserveState(from, to string) {
	now := sc.c.clock.Now()
	sc.closeResidency(now)
	sc.cur = to
	sc.reg.Counter("fsm_transitions").Inc()
}

func (sc *stationCollector) ObserveTimer(at sim.Time) {
	if at < 0 {
		sc.reg.Counter("timer_cancel").Inc()
		return
	}
	sc.reg.Counter("timer_arm").Inc()
}

func (sc *stationCollector) ObserveQueue(op string, dst frame.NodeID, n int) {
	sc.reg.Counter("queue_" + op).Inc()
	sc.reg.Gauge("queue_depth").Set(float64(n))
	sc.reg.Histogram("queue_depth", QueueBuckets()).Observe(float64(n))
}

func (sc *stationCollector) ObserveDeliver(f *frame.Frame) {
	sc.reg.Counter("deliver").Inc()
}

func (sc *stationCollector) ObserveRetry(dst frame.NodeID) {
	sc.reg.Counter("retries").Inc()
}

func (sc *stationCollector) ObserveDrop(dst frame.NodeID, reason mac.DropReason) {
	sc.reg.Counter("drops_" + dropSlug(reason)).Inc()
}

// dropSlug maps a drop reason to a stable counter-name suffix.
func dropSlug(r mac.DropReason) string {
	switch r {
	case mac.DropRetries:
		return "retry_limit"
	case mac.DropDisabled:
		return "disabled"
	}
	return strings.ReplaceAll(string(r), " ", "_")
}

// StationMetrics is one station's snapshot: the instrument registry, the
// per-state FSM residency in seconds, and the MAC's own final counters.
type StationMetrics struct {
	*Registry
	FSMResidencyS map[string]float64 `json:"fsm_residency_s,omitempty"`
	MACStats      mac.Stats          `json:"mac_stats"`
}

// StreamMetrics is one stream's snapshot, including the in-window delay
// histogram (seconds).
type StreamMetrics struct {
	Transport  string     `json:"transport"`
	RatePPS    float64    `json:"rate_pps"`
	PPS        float64    `json:"pps"`
	Offered    int        `json:"offered"`
	Delivered  int        `json:"delivered"`
	MeanDelayS float64    `json:"mean_delay_s"`
	P95DelayS  float64    `json:"p95_delay_s"`
	Delay      *Histogram `json:"delay_s"`
}

// EngineMetrics snapshots the discrete-event engine's cost counters.
type EngineMetrics struct {
	EventsFired   uint64 `json:"events_fired"`
	MaxEventQueue int    `json:"max_event_queue"`
}

// RunMetrics is the full snapshot of one instrumented run — the JSON schema
// documented in DESIGN.md §12.
type RunMetrics struct {
	Seed     int64                      `json:"seed"`
	TotalS   float64                    `json:"total_s"`
	WarmupS  float64                    `json:"warmup_s"`
	Engine   EngineMetrics              `json:"engine"`
	Stations map[string]*StationMetrics `json:"stations"`
	Streams  map[string]*StreamMetrics  `json:"streams"`
}

// Snapshot folds the collected hooks together with the run's results into a
// RunMetrics: per-station registries (backoff series renamed to their
// destination station), per-stream delay histograms (also aggregated into
// the sending station's registry), and the engine counters. Call it once,
// after the run completes.
func (c *Collector) Snapshot(n *core.Network, res core.Results, seed int64) *RunMetrics {
	names := make(map[frame.NodeID]string, len(n.Stations()))
	for _, st := range n.Stations() {
		names[st.ID()] = st.Name()
	}
	rm := &RunMetrics{
		Seed:    seed,
		TotalS:  res.Duration.Seconds(),
		WarmupS: res.Warmup.Seconds(),
		Engine: EngineMetrics{
			EventsFired:   n.Sim.Fired(),
			MaxEventQueue: n.Sim.MaxQueued(),
		},
		Stations: make(map[string]*StationMetrics),
		Streams:  make(map[string]*StreamMetrics),
	}
	now := n.Sim.Now()
	for _, st := range n.Stations() {
		sc := c.stations[st.Name()]
		if sc == nil {
			// Station never emitted a hook (e.g. token scheme without
			// observer support); still report its MAC counters.
			rm.Stations[st.Name()] = &StationMetrics{Registry: NewRegistry(), MACStats: st.MAC().Stats()}
			continue
		}
		sc.closeResidency(now)
		for dst, s := range sc.backoff {
			name, ok := names[dst]
			if !ok {
				if dst == frame.Broadcast {
					name = "MCAST"
				} else {
					name = fmt.Sprintf("N%d", dst)
				}
			}
			sc.reg.Series["backoff_to_"+name] = s
		}
		sm := &StationMetrics{
			Registry:      sc.reg,
			FSMResidencyS: make(map[string]float64, len(sc.residency)),
			MACStats:      st.MAC().Stats(),
		}
		for state, d := range sc.residency {
			sm.FSMResidencyS[state] = d.Seconds()
		}
		rm.Stations[st.Name()] = sm
	}
	for i, s := range n.Streams() {
		h := NewHistogram(DelayBuckets())
		s.EachDelay(func(d sim.Duration) { h.Observe(d.Seconds()) })
		var sr core.StreamResult
		if i < len(res.Streams) {
			sr = res.Streams[i]
		}
		rm.Streams[s.Name] = &StreamMetrics{
			Transport:  s.Kind.String(),
			RatePPS:    s.Rate,
			PPS:        sr.PPS,
			Offered:    sr.Offered,
			Delivered:  sr.Delivered,
			MeanDelayS: sr.MeanDelay.Seconds(),
			P95DelayS:  sr.P95Delay.Seconds(),
			Delay:      h,
		}
		if from := rm.Stations[s.From.Name()]; from != nil {
			agg := from.Histogram("delay_s", DelayBuckets())
			s.EachDelay(func(d sim.Duration) { agg.Observe(d.Seconds()) })
		}
	}
	return rm
}

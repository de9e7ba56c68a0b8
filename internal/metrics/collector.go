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
			c:       c,
			reg:     NewRegistry(),
			backoff: make(map[frame.NodeID]*Series),
			since:   c.clock.Now(),
		}
		c.stations[st.Name()] = sc
	} else {
		sc.closeResidency(c.clock.Now())
		sc.reg.Counter("mac_restarts").Inc()
	}
	sc.enter("IDLE")
	return sc
}

// frameHandles is the number of frame types whose tx_/rx_ counters a
// station keeps handles for; every defined type fits, and a type past it
// still resolves through the registry by name.
const frameHandles = 16

// stationCollector accumulates one station's metrics across MAC lifetimes.
// Its hooks count through handles into reg, each resolved by name on the
// first hook that needs it and reused after, so an instrument that never
// fires stays absent from the document and a hook that does costs no map
// lookup and no name.
type stationCollector struct {
	c       *Collector
	reg     *Registry
	backoff map[frame.NodeID]*Series

	tx, rx                         [frameHandles]*Counter
	queuePush, queuePop, queueDrop *Counter
	queueDepth                     *Gauge
	queueHist, backoffHist         *Histogram
	deliver, retries               *Counter
	timerArm, timerCancel          *Counter
	fsmTransitions                 *Counter
	dropsRetryLimit, dropsDisabled *Counter

	// FSM residency bookkeeping: the time spent in each state entered,
	// in order of first entry, and in residency[cur] since 'since'.
	residency []stateTime
	cur       int
	since     sim.Time
}

// stateTime is the time a station has spent in one FSM state.
type stateTime struct {
	state string
	d     sim.Duration
}

// counter returns *h, resolving it to reg's counter called name first if
// it is unset.
func (sc *stationCollector) counter(h **Counter, name string) *Counter {
	if *h == nil {
		*h = sc.reg.Counter(name)
	}
	return *h
}

// frameCounter returns the prefix+type counter through hs.
func (sc *stationCollector) frameCounter(hs *[frameHandles]*Counter, prefix string, t frame.Type) *Counter {
	if int(t) >= len(hs) {
		return sc.reg.Counter(prefix + t.String())
	}
	if hs[t] == nil {
		hs[t] = sc.reg.Counter(prefix + t.String())
	}
	return hs[t]
}

func (sc *stationCollector) closeResidency(now sim.Time) {
	sc.residency[sc.cur].d += now - sc.since
	sc.since = now
}

// enter makes state the current one, adding its record on first entry. A
// MAC has a handful of states, so a scan finds it.
func (sc *stationCollector) enter(state string) {
	for i := range sc.residency {
		if sc.residency[i].state == state {
			sc.cur = i
			return
		}
	}
	sc.cur = len(sc.residency)
	sc.residency = append(sc.residency, stateTime{state: state})
}

func (sc *stationCollector) ObserveTx(f *frame.Frame) {
	sc.frameCounter(&sc.tx, "tx_", f.Type).Inc()
	if f.LocalBackoff >= 0 {
		s := sc.backoff[f.Dst]
		if s == nil {
			s = &Series{}
			sc.backoff[f.Dst] = s
		}
		s.Observe(sc.c.clock.Now(), float64(f.LocalBackoff))
		if sc.backoffHist == nil {
			sc.backoffHist = sc.reg.Histogram("backoff", backoffBounds)
		}
		sc.backoffHist.Observe(float64(f.LocalBackoff))
	}
}

func (sc *stationCollector) ObserveRx(f *frame.Frame) {
	sc.frameCounter(&sc.rx, "rx_", f.Type).Inc()
}

func (sc *stationCollector) ObserveState(from, to string) {
	now := sc.c.clock.Now()
	sc.closeResidency(now)
	sc.enter(to)
	sc.counter(&sc.fsmTransitions, "fsm_transitions").Inc()
}

func (sc *stationCollector) ObserveTimer(at sim.Time) {
	if at < 0 {
		sc.counter(&sc.timerCancel, "timer_cancel").Inc()
		return
	}
	sc.counter(&sc.timerArm, "timer_arm").Inc()
}

func (sc *stationCollector) ObserveQueue(op string, dst frame.NodeID, n int) {
	switch op {
	case "push":
		sc.counter(&sc.queuePush, "queue_push").Inc()
	case "pop":
		sc.counter(&sc.queuePop, "queue_pop").Inc()
	case "drop":
		sc.counter(&sc.queueDrop, "queue_drop").Inc()
	default:
		sc.reg.Counter("queue_" + op).Inc()
	}
	if sc.queueDepth == nil {
		sc.queueDepth = sc.reg.Gauge("queue_depth")
		sc.queueHist = sc.reg.Histogram("queue_depth", queueBounds)
	}
	sc.queueDepth.Set(float64(n))
	sc.queueHist.Observe(float64(n))
}

func (sc *stationCollector) ObserveDeliver(f *frame.Frame) {
	sc.counter(&sc.deliver, "deliver").Inc()
}

func (sc *stationCollector) ObserveRetry(dst frame.NodeID) {
	sc.counter(&sc.retries, "retries").Inc()
}

func (sc *stationCollector) ObserveDrop(dst frame.NodeID, reason mac.DropReason) {
	switch reason {
	case mac.DropRetries:
		sc.counter(&sc.dropsRetryLimit, "drops_retry_limit").Inc()
	case mac.DropDisabled:
		sc.counter(&sc.dropsDisabled, "drops_disabled").Inc()
	default:
		sc.reg.Counter("drops_" + strings.ReplaceAll(string(reason), " ", "_")).Inc()
	}
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
		for _, r := range sc.residency {
			sm.FSMResidencyS[r.state] = r.d.Seconds()
		}
		rm.Stations[st.Name()] = sm
	}
	for i, s := range n.Streams() {
		h := NewHistogram(delayBounds)
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
			agg := from.Histogram("delay_s", delayBounds)
			s.EachDelay(func(d sim.Duration) { agg.Observe(d.Seconds()) })
		}
	}
	return rm
}

// Package core assembles the full simulated wireless LAN: stations (pads
// and base stations) binding a radio to a MAC protocol instance, transport
// agents multiplexed over the MAC, traffic generators, mobility and
// power-off events, and the scenario runner that measures per-stream
// throughput the way the paper does (a warmup period followed by a
// measurement window).
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/dcf"
	"macaw/internal/mac/maca"
	"macaw/internal/mac/macaw"
	"macaw/internal/mac/token"
	"macaw/internal/mac/tournament"
	"macaw/internal/phy"
	"macaw/internal/sim"
	"macaw/internal/stats"
	"macaw/internal/traffic"
	"macaw/internal/transport"
)

// MACFactory builds a protocol engine over the prepared environment. The
// return type is the explicit MAC SPI (mac.Engine): a backend that misses any
// part of the contract — lifecycle, introspection — does
// not compile as a factory.
type MACFactory func(env *mac.Env) mac.Engine

// MACAFactory returns the original MACA protocol (Appendix A).
func MACAFactory() MACFactory {
	return func(env *mac.Env) mac.Engine { return maca.New(env) }
}

// MACAWFactory returns the MACAW engine with the given options. Options
// with a non-nil Policy must not be shared across stations; use
// MACAWFactoryWith for per-station policies.
func MACAWFactory(opt macaw.Options) MACFactory {
	if opt.Policy != nil {
		panic("core: shared backoff.Policy across stations; use MACAWFactoryWith")
	}
	return func(env *mac.Env) mac.Engine { return macaw.New(env, opt) }
}

// MACAWFactoryWith returns a MACAW factory that builds a fresh backoff
// policy per station.
func MACAWFactoryWith(opt macaw.Options, policy func() backoff.Policy) MACFactory {
	return func(env *mac.Env) mac.Engine {
		o := opt
		o.Policy = policy()
		return macaw.New(env, o)
	}
}

// CSMAFactory returns the carrier-sense baseline.
func CSMAFactory(opt csma.Options) MACFactory {
	return func(env *mac.Env) mac.Engine { return csma.New(env, opt) }
}

// TokenFactory returns the token-based single-cell scheme the paper defers
// to future work. All stations of the network must belong to the ring;
// AddStation assigns ids 1..N in creation order, so a ring of the first N
// ids covers a network built before any stream is added.
func TokenFactory(opt token.Options) MACFactory {
	return func(env *mac.Env) mac.Engine { return token.New(env, opt) }
}

// DCFFactory returns the IEEE 802.11 DCF engine (CSMA/CA with NAV virtual
// carrier sense, SIFS/DIFS interframe spacing, CWmin/CWmax binary exponential
// backoff, and short/long retry limits).
func DCFFactory(opt dcf.Options) MACFactory {
	return func(env *mac.Env) mac.Engine { return dcf.New(env, opt) }
}

// TournamentFactory returns the Tournament MAC: a constant-size congestion
// window resolved by a binary elimination tournament on the slot grid instead
// of an exponentially growing backoff window.
func TournamentFactory(opt tournament.Options) MACFactory {
	return func(env *mac.Env) mac.Engine { return tournament.New(env, opt) }
}

// RingOf returns the node ids 1..n, the ring of a network's first n
// stations in creation order.
func RingOf(n int) []frame.NodeID {
	ring := make([]frame.NodeID, n)
	for i := range ring {
		ring[i] = frame.NodeID(i + 1)
	}
	return ring
}

// Station is one pad or base station.
type Station struct {
	id      frame.NodeID
	name    string
	net     *Network
	radio   *phy.Radio
	mac     mac.Engine
	factory MACFactory

	handlers []func(src frame.NodeID, seg transport.Segment)
	// free holds completed packets, zeroed but for their payload buffers,
	// for SendSegment to reuse: a station allocates a packet, and takes
	// payload bytes from the arena, only when its backlog sets a new high.
	free []*mac.Packet
	// dropped accumulates MAC-level packet drops surfaced via callbacks.
	dropped int
	// crashes and restarts count fault-injection events at this station.
	crashes, restarts int
}

// ID returns the station identifier.
func (st *Station) ID() frame.NodeID { return st.id }

// Name returns the human-readable station name (e.g. "P1", "B2").
func (st *Station) Name() string { return st.name }

// Radio exposes the station's radio (for mobility and power control).
func (st *Station) Radio() *phy.Radio { return st.radio }

// MAC exposes the station's protocol instance.
func (st *Station) MAC() mac.Engine { return st.mac }

// Dropped reports MAC-level packet drops at this station.
func (st *Station) Dropped() int { return st.dropped }

// Crashes reports how many times the station has crashed.
func (st *Station) Crashes() int { return st.crashes }

// Restarts reports how many times the station has restarted.
func (st *Station) Restarts() int { return st.restarts }

// newEnv builds a MAC environment bound to the station's radio. Each call
// draws a fresh generator from the simulator, so a restarted MAC gets its own
// reproducible stream.
func (st *Station) newEnv() *mac.Env {
	env := &mac.Env{
		Sim:   st.net.Sim,
		Radio: st.radio,
		Rand:  st.net.Sim.NewRand(),
		Cfg:   st.net.Cfg,
		Callbacks: mac.Callbacks{
			Deliver: st.onDeliver,
			Sent:    st.recycle,
			Dropped: st.onDropped,
		},
	}
	switch len(st.net.obsFactories) {
	case 0:
	case 1:
		env.Obs = st.net.obsFactories[0](st)
	default:
		obs := make([]mac.Observer, len(st.net.obsFactories))
		for i, f := range st.net.obsFactories {
			obs[i] = f(st)
		}
		env.Obs = mac.CombineObservers(obs...)
	}
	return env
}

// Crash simulates a node failure: the MAC instance is halted (timers
// cancelled, queued packets dropped) and the radio goes dark, mid-exchange or
// not. Peers keep whatever ESN/backoff state they hold for the station.
// Traffic generators keep running — their segments are discarded while the
// radio is down (SendSegment checks Enabled) and flow again after Restart.
// Crashing an already-dark station is a no-op; it reports whether the crash
// took effect.
func (st *Station) Crash() bool {
	if !st.radio.Enabled() {
		return false
	}
	st.mac.Halt()
	st.radio.SetEnabled(false)
	st.crashes++
	return true
}

// Restart revives a crashed station: the radio powers back up and a fresh
// MAC instance is built from the station's factory, replacing the halted one
// as the radio handler. All protocol state — FSM, queues, backoff counters,
// link-layer sequence numbers — resets exactly as a rebooted device's would,
// while peers still hold entries for the pre-crash instance. Restarting a
// station that is already up is a no-op (a second live MAC bound to the same
// radio would fight the first for it); it reports whether a restart
// happened.
func (st *Station) Restart() bool {
	if st.radio.Enabled() {
		return false
	}
	st.radio.SetEnabled(true)
	st.mac = st.factory(st.newEnv())
	st.restarts++
	return true
}

// SendSegment implements transport.Endpoint: wrap the segment into a MAC
// packet of the requested on-air size, reusing a completed packet, and the
// payload buffer it kept, when the station has one. A powered-off station
// sends nothing.
func (st *Station) SendSegment(dst frame.NodeID, seg transport.Segment, size int) {
	if !st.radio.Enabled() {
		return
	}
	var p *mac.Packet
	if k := len(st.free); k > 0 {
		p = st.free[k-1]
		st.free = st.free[:k-1]
	} else {
		p = new(mac.Packet)
	}
	if cap(p.Payload) < transport.HeaderLen {
		p.Payload = st.net.payload()
	}
	p.Payload = p.Payload[:transport.HeaderLen]
	seg.Put(p.Payload)
	p.Dst, p.Size = dst, size
	st.mac.Enqueue(p)
}

// onDropped counts an abandoned packet and recycles it.
func (st *Station) onDropped(p *mac.Packet, _ mac.DropReason) {
	st.dropped++
	st.recycle(p)
}

// recycle takes back a packet at its terminal callback (Sent or Dropped):
// the MAC SPI's lifetime rule makes it dead to the engine once the callback
// returns, and the radio copied its payload when it went on the air, so the
// packet keeps its payload buffer (emptied) for the next offer. A zeroed
// packet has Size 0, which no offer carries, so completing one packet twice
// fails closed.
func (st *Station) recycle(p *mac.Packet) {
	if p.Size == 0 {
		panic(fmt.Sprintf("core: station %s: packet completed twice", st.name))
	}
	*p = mac.Packet{Payload: p.Payload[:0]}
	st.free = append(st.free, p)
}

// Clock implements transport.Endpoint.
func (st *Station) Clock() *sim.Simulator { return st.net.Sim }

// onDeliver demultiplexes a MAC payload to the registered transport agents.
func (st *Station) onDeliver(src frame.NodeID, payload []byte) {
	seg, err := transport.UnmarshalSegment(payload)
	if err != nil {
		return // not a transport segment (e.g. raw example traffic)
	}
	for _, h := range st.handlers {
		h(src, seg)
	}
}

// Handle registers a transport handler at this station.
func (st *Station) Handle(h func(src frame.NodeID, seg transport.Segment)) {
	st.handlers = append(st.handlers, h)
}

// TransportKind selects a stream's transport protocol.
type TransportKind int

// Transports.
const (
	UDP TransportKind = iota
	TCP
)

// String names the transport.
func (k TransportKind) String() string {
	if k == UDP {
		return "UDP"
	}
	return "TCP"
}

// Stream is one unidirectional data stream between two stations. Its offer
// bookkeeping costs one 8-byte word per offered packet, which holds the
// offer time while the packet is pending and its delay once it arrives
// inside the measurement window (NumDelays, EachDelay).
type Stream struct {
	Name      string
	From, To  *Station
	Kind      TransportKind
	Rate      float64
	id        uint16
	startAt   sim.Duration
	gen       traffic.Generator
	counter   *stats.Windowed
	udpSender *transport.UDPSender
	tcpSender *transport.TCPSender
	tcpRecv   *transport.TCPReceiver
	offered   int

	// offeredAt holds one word per offered packet, indexed by seq-1: UDP
	// and TCP senders both number their offers 1, 2, 3, ... A pending
	// entry holds its offer time, and pending counts those. A delivery
	// overwrites its entry with consumed or, inside the measurement
	// window, with the folded delay consumed-1-delay, so the delays cost
	// no storage of their own (see EachDelay).
	offeredAt []sim.Time
	pending   int
	// ndelays counts the folded delays; lastDelay is the seq of the
	// latest one.
	ndelays   int
	lastDelay uint32
}

// consumed marks an offeredAt entry whose packet was delivered outside the
// measurement window (or that was never offered). Offer times are never
// negative, and a folded delay is below consumed.
const consumed sim.Time = -1

// Offered reports the number of packets the application generated.
func (s *Stream) Offered() int { return s.offered }

// SetStart delays the stream's traffic generator by d after the run begins;
// several of the paper's scenarios assume one stream is established before
// the other starts contending.
func (s *Stream) SetStart(d sim.Duration) { s.startAt = d }

// TCPSenderStats returns the TCP sender counters (zero value for UDP).
func (s *Stream) TCPSenderStats() transport.TCPStats {
	if s.tcpSender == nil {
		return transport.TCPStats{}
	}
	return s.tcpSender.Stats()
}

// Network is a complete simulated LAN.
type Network struct {
	Sim      *sim.Simulator
	Medium   *phy.Medium
	Cfg      mac.Config
	stations []*Station
	byName   map[string]*Station
	streams  []*Stream
	nextID   frame.NodeID
	nextSID  uint16
	warmup   sim.Duration
	// runStart/runTotal record the window armed by Start for End/Collect.
	runStart sim.Time
	runTotal sim.Duration
	// obsFactories build the per-MAC-lifetime passive observers; see
	// SetMACObserver and AddMACObserver.
	obsFactories []MACObserverFactory
	// arena is the unused tail of the chunk that new packets' payload
	// buffers are cut from (see payload).
	arena []byte

	// TCPCfg configures new TCP streams. The default matches the
	// paper-era TCP §3.3.1 describes: a 0.5 s minimum retransmission
	// timeout and no fast retransmit.
	TCPCfg transport.TCPConfig
}

// NewNetwork creates a network with the paper's default radio and MAC
// parameters.
func NewNetwork(seed int64) *Network {
	s := sim.New(seed)
	tcpCfg := transport.DefaultTCPConfig()
	tcpCfg.DupAckThreshold = 0 // 1994-era TCP: timeout-driven recovery only
	return &Network{
		Sim:    s,
		Medium: phy.New(s, phy.DefaultParams()),
		Cfg:    mac.DefaultConfig(),
		byName: make(map[string]*Station),
		nextID: 1,
		TCPCfg: tcpCfg,
	}
}

// arenaChunk is the size of one payload arena chunk: 85 transport headers
// in the 1 KiB size class.
const arenaChunk = 85 * transport.HeaderLen

// payload cuts the next HeaderLen bytes from the network's arena, a payload
// buffer for a packet allocated at a new backlog high; the packet keeps it
// across recycling.
func (n *Network) payload() []byte {
	if len(n.arena) < transport.HeaderLen {
		n.arena = make([]byte, arenaChunk)
	}
	b := n.arena[:transport.HeaderLen:transport.HeaderLen]
	n.arena = n.arena[transport.HeaderLen:]
	return b
}

// MACObserverFactory builds a mac.Observer for one MAC instance of st. It is
// invoked once per MAC lifetime: when the station is added, and again for the
// fresh instance each Restart builds — so a conformance auditor can reset its
// per-lifetime expectations. The factory runs while the station's MAC field
// is still being replaced; observers must defer any st.MAC() inspection until
// the first event.
type MACObserverFactory func(st *Station) mac.Observer

// SetMACObserver installs a factory producing a passive mac.Observer for
// every MAC instance the network creates, replacing any factories installed
// so far. It must be called before stations are added; observers must not
// affect simulation behavior (see mac.Observer).
func (n *Network) SetMACObserver(f MACObserverFactory) {
	n.obsFactories = []MACObserverFactory{f}
}

// AddMACObserver installs an additional observer factory alongside any
// already present — e.g. the conformance oracle and a metrics collector on
// the same run. When several are attached, each MAC sees a composite that
// fans every hook out in attachment order. Like SetMACObserver it must be
// called before stations are added.
func (n *Network) AddMACObserver(f MACObserverFactory) {
	n.obsFactories = append(n.obsFactories, f)
}

// AddStation creates a station at pos running the protocol built by f.
func (n *Network) AddStation(name string, pos geom.Vec3, f MACFactory) *Station {
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("core: duplicate station name %q", name))
	}
	st := &Station{id: n.nextID, name: name, net: n, factory: f}
	n.nextID++
	st.radio = n.Medium.Attach(st.id, pos, nil)
	st.mac = f(st.newEnv())
	n.stations = append(n.stations, st)
	n.byName[name] = st
	return st
}

// Station returns the station with the given name, or nil.
func (n *Network) Station(name string) *Station { return n.byName[name] }

// Stations returns all stations in creation order.
func (n *Network) Stations() []*Station { return n.stations }

// Streams returns all streams in creation order.
func (n *Network) Streams() []*Stream { return n.streams }

// AddStream creates a unidirectional stream from -> to at rate packets per
// second using the given transport. The stream name follows the paper's
// "P1-B1" convention unless overridden with SetName.
func (n *Network) AddStream(from, to *Station, kind TransportKind, rate float64) *Stream {
	n.nextSID++
	s := &Stream{
		Name: from.name + "-" + to.name,
		From: from, To: to, Kind: kind, Rate: rate,
		id: n.nextSID,
	}
	switch kind {
	case UDP:
		snd := transport.NewUDPSender(from, to.id, s.id)
		rcv := transport.NewUDPReceiver(s.id)
		rcv.OnDeliver = func(seq uint32) { s.record(n.Sim.Now(), seq) }
		to.Handle(rcv.Handle)
		s.udpSender = snd
		s.gen = traffic.NewCBR(n.Sim, rate, n.Sim.NewRand(), func() { s.offer(snd.Offer()) })
	case TCP:
		snd := transport.NewTCPSender(from, to.id, s.id, n.TCPCfg)
		rcv := transport.NewTCPReceiver(to, s.id)
		rcv.OnDeliver = func(seq uint32) { s.record(n.Sim.Now(), seq) }
		from.Handle(snd.Handle)
		to.Handle(rcv.Handle)
		s.tcpSender = snd
		s.tcpRecv = rcv
		s.gen = traffic.NewCBR(n.Sim, rate, n.Sim.NewRand(), func() { s.offer(snd.Offer()) })
	default:
		panic("core: unknown transport kind")
	}
	n.streams = append(n.streams, s)
	return s
}

func (s *Stream) offer(seq uint32) {
	s.offered++
	i := int(seq) - 1
	for len(s.offeredAt) <= i {
		s.offeredAt = append(s.offeredAt, consumed)
	}
	switch at := s.offeredAt[i]; {
	case at == consumed:
		s.pending++
	case at < consumed:
		panic(fmt.Sprintf("core: stream %s: seq %d offered again after its delay was recorded", s.Name, seq))
	}
	s.offeredAt[i] = s.From.net.Sim.Now()
}

// record accounts the in-order arrival of seq at t. An in-window arrival
// folds its delay into the offer's slot; EachDelay reads the slots in seq
// order, which is arrival order only while in-window arrivals come in
// rising seq, so one that does not panics rather than reorder the delays.
func (s *Stream) record(t sim.Time, seq uint32) {
	if s.counter != nil {
		s.counter.Record(t)
		if i := int(seq) - 1; i >= 0 && i < len(s.offeredAt) && s.offeredAt[i] >= 0 {
			s.pending--
			if t < s.counter.Warmup() {
				s.offeredAt[i] = consumed
				return
			}
			if seq <= s.lastDelay {
				panic(fmt.Sprintf("core: stream %s: seq %d arrived in the window after seq %d", s.Name, seq, s.lastDelay))
			}
			s.offeredAt[i] = consumed - 1 - (t - s.offeredAt[i])
			s.ndelays++
			s.lastDelay = seq
		}
	}
}

// NumDelays reports the number of in-window delivery delays.
func (s *Stream) NumDelays() int { return s.ndelays }

// EachDelay calls fn with every in-window delivery delay (offer to in-order
// arrival), in seq order, which record holds equal to arrival order.
func (s *Stream) EachDelay(fn func(sim.Duration)) {
	for _, v := range s.offeredAt {
		if v < consumed {
			fn(consumed - 1 - v)
		}
	}
}

// At schedules fn at simulation time t (for mobility, power-off, noise
// toggles and other scenario events).
func (n *Network) At(t sim.Time, fn func()) { n.Sim.At(t, fn) }

// PowerOff turns a station off at time t: its radio stops radiating and
// hearing, and its generators stop (the Figure 9 dead-pad scenario).
func (n *Network) PowerOff(st *Station, t sim.Time) {
	n.At(t, func() {
		st.radio.SetEnabled(false)
		for _, s := range n.streams {
			if s.From == st {
				s.gen.Stop(n.Sim.Now())
			}
		}
	})
}

// MoveStation relocates a station at time t (the Figure 11 mobile pad).
func (n *Network) MoveStation(st *Station, t sim.Time, pos geom.Vec3) {
	n.At(t, func() { st.radio.SetPos(pos) })
}

// StreamResult is one row of a results table.
type StreamResult struct {
	Name      string
	PPS       float64
	Delivered int
	Offered   int
	// MeanDelay and P95Delay summarize offer-to-delivery latency inside
	// the measurement window.
	MeanDelay sim.Duration
	P95Delay  sim.Duration
}

// Results summarizes a run.
type Results struct {
	Streams  []StreamResult
	Duration sim.Duration
	Warmup   sim.Duration
	Medium   phy.Counters
}

// PPS returns the measured rate of the named stream (0 if unknown).
func (r Results) PPS(name string) float64 {
	for _, s := range r.Streams {
		if s.Name == name {
			return s.PPS
		}
	}
	return 0
}

// TotalPPS sums the per-stream rates.
func (r Results) TotalPPS() float64 {
	var t float64
	for _, s := range r.Streams {
		t += s.PPS
	}
	return t
}

// Rates returns the per-stream rates in stream order.
func (r Results) Rates() []float64 {
	out := make([]float64, len(r.Streams))
	for i, s := range r.Streams {
		out[i] = s.PPS
	}
	return out
}

// Fairness returns Jain's index over the per-stream rates.
func (r Results) Fairness() float64 { return stats.Jain(r.Rates()) }

// String renders the results as an aligned table, in one buffer: a city's
// ten thousand streams cost their bytes once, not once per row.
func (r Results) String() string {
	var b strings.Builder
	b.Grow(resultsRowBytes * (len(r.Streams) + 2))
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %12s %12s\n", "stream", "pps", "delivered", "offered", "mean delay", "p95 delay")
	for _, s := range r.Streams {
		fmt.Fprintf(&b, "%-10s %10.2f %10d %10d %12v %12v\n", s.Name, s.PPS, s.Delivered, s.Offered, s.MeanDelay, s.P95Delay)
	}
	fmt.Fprintf(&b, "total %.2f pps, fairness %.3f\n", r.TotalPPS(), r.Fairness())
	return b.String()
}

// resultsRowBytes is the width of one String row at its minimum field
// widths, newline included.
const resultsRowBytes = 10 + 1 + 10 + 1 + 10 + 1 + 10 + 1 + 12 + 1 + 12 + 1

// Run simulates for total seconds of simulated time, measuring throughput
// from warmup onward. Generators start at t=0 (any previous run's state is
// preserved; Run is intended to be called once per Network). Run is exactly
// Start + RunTo(End) + Collect; sweep variants and stepped runs use those
// pieces directly so they can pause at virtual-time barriers *between*
// sim.Run segments — the engine fires the same events in the same order
// whether Run(end) is called once or as Run(b1), Run(b2), ..., Run(end), so
// a barrier never perturbs the simulation (no event is ever scheduled for
// it).
func (n *Network) Run(total, warmup sim.Duration) Results {
	n.Start(total, warmup)
	n.RunTo(n.End())
	return n.Collect()
}

// Start arms the measurement windows and traffic generators for a run of
// total simulated seconds with the given warmup, without advancing the
// clock. Pair with RunTo and Collect.
func (n *Network) Start(total, warmup sim.Duration) {
	if warmup >= total {
		panic("core: warmup must precede the end of the run")
	}
	n.warmup = warmup
	start := n.Sim.Now()
	n.runStart = start
	n.runTotal = total
	for _, s := range n.streams {
		s.counter = stats.NewWindowed(start+warmup, start+total)
		// A CBR source offers at most rate×total packets in the run, so
		// the bookkeeping never regrows mid-run.
		s.offeredAt = slices.Grow(s.offeredAt, int(s.Rate*total.Seconds())+1)
		s.gen.Start(start + s.startAt)
	}
}

// End reports the virtual end time of the run armed by Start.
func (n *Network) End() sim.Time { return n.runStart + n.runTotal }

// RunTo advances the simulation to virtual time t (inclusive of events
// scheduled exactly at t). Calling RunTo repeatedly with increasing barriers
// is bit-identical to one call with the final time.
func (n *Network) RunTo(t sim.Time) { n.Sim.Run(t) }

// Collect summarizes the run armed by Start once RunTo has reached End.
func (n *Network) Collect() Results {
	total, warmup := n.runTotal, n.warmup
	res := Results{Duration: total, Warmup: warmup, Medium: n.Medium.Counters()}
	for _, s := range n.streams {
		r := StreamResult{
			Name:      s.Name,
			PPS:       s.counter.PPS(),
			Delivered: s.counter.Count(),
			Offered:   s.offered,
		}
		if count := s.NumDelays(); count > 0 {
			var sum sim.Duration
			lo, hi := sim.Duration(math.MaxInt64), sim.Duration(0)
			s.EachDelay(func(d sim.Duration) {
				sum += d
				lo, hi = min(lo, d), max(hi, d)
			})
			r.MeanDelay = sum / sim.Duration(count)
			r.P95Delay = s.delayRank(int(0.95*float64(count)), lo, hi)
		}
		res.Streams = append(res.Streams, r)
	}
	return res
}

// delayRank returns the delay of rank k (0-based, ascending) among the
// stream's delays, all in [lo, hi]: what indexing the sorted delays at k
// reads, found by binary search over values, counting the delays at or
// below the midpoint on each step, so it allocates nothing.
func (s *Stream) delayRank(k int, lo, hi sim.Duration) sim.Duration {
	for lo < hi {
		mid := lo + (hi-lo)/2
		n := 0
		s.EachDelay(func(d sim.Duration) {
			if d <= mid {
				n++
			}
		})
		if n > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// HearingGraph returns the station names each station can hear, keyed by
// name — used by topology tests to pin the paper's configurations.
func (n *Network) HearingGraph() map[string][]string {
	g := make(map[string][]string)
	for _, a := range n.stations {
		var hears []string
		for _, b := range n.stations {
			if a != b && n.Medium.InRange(a.radio, b.radio) {
				hears = append(hears, b.name)
			}
		}
		sort.Strings(hears)
		g[a.name] = hears
	}
	return g
}

package macaw_test

import (
	"math"
	"runtime"
	"testing"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/mac/macaw"
	"macaw/internal/metrics"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// figure2Cell builds the Table 1 cell (the Figure 2 single cell,
// RTS-CTS-DATA under BEB+copy) with each pad offering rate pps, attaching
// obs to every station.
func figure2Cell(t *testing.T, rate float64, obs ...core.MACObserverFactory) *core.Network {
	t.Helper()
	l := topo.Figure2()
	for i := range l.Streams {
		l.Streams[i].Rate = rate
	}
	f := core.MACAWFactoryWith(macaw.Options{Exchange: macaw.Basic},
		func() backoff.Policy { return backoff.NewSingle(backoff.NewBEB(), true) })
	n := core.NewNetwork(1)
	for _, o := range obs {
		n.AddMACObserver(o)
	}
	if err := l.Build(n, f); err != nil {
		t.Fatal(err)
	}
	return n
}

// maxMallocsPerCell pins the heap-allocation count of a short Table 1 run
// at the paper's 64 pps per pad. Timers, traffic ticks, queues, offer
// bookkeeping and frames allocate nothing per event, a station reuses
// completed packets with their payload buffers, a new backlog high takes
// its packet from the network's 32-packet slab blocks, and queues take
// their blocks from the network's store, cut from 8-block chunks
// (DESIGN.md §8); what remains is a share of a slab block, a payload cut
// and a share of a queue-block chunk per new backlog high, and the cell's
// fixed costs. The run fires 37 442 events. Measured on go1.24
// linux/amd64: 146 mallocs, pinned at 146 plus 15% headroom, against 200
// to 204 when each queue allocated its own blocks, 1786 when every new
// backlog high allocated its own packet (0.047 per fired event), 0.139
// per event when every offer allocated its packet and payload, 0.245 when
// every transmission allocated its frame and 0.552 when every timer arm
// allocated a method-value closure.
const maxMallocsPerCell = 168

// maxMallocsPerComponentStation pins the heap allocations per station of
// building and briefly running a 17-station MACAW component, the size of
// the city workload's largest, through a core.Spares that a finished
// component has handed its storage to, as each shard worker does
// (TestMallocsPerComponentStation). The component is built in the
// finished one's record, its stations, streams and MAC engines in theirs,
// so what remains is what each network makes fresh: the random streams of
// every station and stream, the closures its host callbacks, transport
// handlers and traffic sources are bound through, and the stream names.
// Measured on go1.24 linux/amd64: 199 mallocs, 11.7 per station (the same
// under the race detector), pinned at 13, against 583, 34.3 per station,
// when a component allocated its own station, stream and engine records,
// and 888, 52.2 per station, when MACAW kept its per-peer state in six
// maps keyed by station id, the per-destination backoff policy and the
// stream queues kept one map each, every network allocated a medium of
// its own and every station a handler record.
const maxMallocsPerComponentStation = 13

// maxMallocsPerCollectedStation is what a metrics collector may add to the
// cell per station (TestMallocsPerInstrumentedCell): the measured 42 with
// 14% headroom.
const maxMallocsPerCollectedStation = 48

// cellMallocs runs n for 20 s after a 2 s warmup and returns the heap
// allocations the run made.
func cellMallocs(n *core.Network) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.Run(20*sim.Second, 2*sim.Second)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMallocsPerFiredEvent fails when a change reintroduces a per-event
// allocation on the simulation's hot path.
func TestMallocsPerFiredEvent(t *testing.T) {
	n := figure2Cell(t, 64)
	mallocs := cellMallocs(n)
	t.Logf("%d mallocs over %d fired events", mallocs, n.Sim.Fired())
	if mallocs > maxMallocsPerCell {
		t.Fatalf("%d mallocs in the cell, want at most %d", mallocs, maxMallocsPerCell)
	}
}

// TestMallocsPerInstrumentedCell runs the same cell with a metrics
// collector attached. The collector resolves each station's instruments
// once, on the hook that first needs them, and counts through the handles
// after (DESIGN.md §12), so what it adds is a fixed per-station cost, not a
// per-hook one: the registry, its maps and their instruments, and the
// growth of the backoff series toward each destination. Measured: 272
// mallocs, 42 per station over the plain cell's 146 (326 over 204 before
// queues took their blocks from a store, 1909 over 1785 before packets
// came from slab blocks), against 22 329 when each hook looked its
// instrument up by a name it built.
func TestMallocsPerInstrumentedCell(t *testing.T) {
	n := figure2Cell(t, 64, metrics.NewCollector().Observer)
	mallocs := cellMallocs(n)
	stations := len(n.Stations())
	limit := uint64(maxMallocsPerCell + stations*maxMallocsPerCollectedStation)
	t.Logf("%d mallocs over %d fired events with %d stations collected", mallocs, n.Sim.Fired(), stations)
	if mallocs > limit {
		t.Fatalf("%d mallocs in the instrumented cell, want at most %d", mallocs, limit)
	}
}

// TestMallocsPerComponentStation fails when a change brings back
// per-peer or per-network allocations that the city workload makes once
// per station. It takes the fewest of three components built in turn
// through one Spares: the heap counter is process-wide.
func TestMallocsPerComponentStation(t *testing.T) {
	const stations = 17
	l := topo.Random(topo.RandomSpec{N: stations, Clustered: true, AreaFt: 24, Seed: 1})
	factory := core.MACAWFactory(macaw.DefaultOptions())
	var sp core.Spares
	build := func() *core.Network {
		n := sp.Network(1)
		if err := l.Build(n, factory); err != nil {
			t.Fatal(err)
		}
		return n
	}
	build().Release()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := build()
		res := n.Run(2*sim.Second, sim.Second)
		runtime.ReadMemStats(&after)
		n.Release()
		if res.TotalPPS() <= 0 {
			t.Fatal("the component delivered nothing")
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	per := float64(least) / stations
	t.Logf("%d mallocs for %d stations: %.1f per station", least, stations, per)
	if per > maxMallocsPerComponentStation {
		t.Fatalf("%.1f mallocs per station, want at most %d", per, maxMallocsPerComponentStation)
	}
}

// Bytes a backlogged packet and an offer cost (DESIGN.md §8): the packet
// record's 32 bytes in a slab block, the 12 payload bytes it keeps across
// recycling and its 8-byte queue slot; an offer's 8-byte offer-time slot;
// and what a run allocates whatever its load, measured at 8.8 KB, the
// first 2 KiB chunk of queue blocks among it (7.3 KB when each queue
// allocated its own blocks).
const (
	bytesPerBacklogPacket = 32 + 12 + 8
	bytesPerOffer         = 8
	bytesPerRun           = 9 << 10
)

// TestBytesPerBacklogPacket bounds a saturated cell's heap bytes by its
// peak backlog times a packet's cost, plus its offers times an offer's,
// plus a fixed term, with 15% headroom. The pads offer 32 pps each, half
// the paper's load and still past the cell's ~46 pps, so the backlog grows
// for the whole run while the offers that complete outnumber it: at 64 pps
// the backlog's bytes are five times the offers', and a per-offer
// regression (a payload cut per offer, a second slot per offer) would fit
// inside the headroom. It takes the fewest bytes of three identical runs:
// the heap counter is process-wide, so it also counts what the runtime and
// other goroutines allocate meanwhile (one full go test ./... on a loaded
// 2-vCPU host read 5248 bytes over the run's steady 39 216), and such a
// one-off shows in one run, not in all three.
//
// The byte model holds for the plain runtime only: under the race detector
// the same run reads about 25% more bytes, so the test skips there. The
// malloc-count tests above count objects, not bytes, and run in both.
func TestBytesPerBacklogPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per heap object; the byte model is for the plain runtime")
	}
	got := uint64(math.MaxUint64)
	var peak, offers int
	for range 3 {
		n := figure2Cell(t, 32)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n.Start(20*sim.Second, 2*sim.Second)
		peak = 0
		for at := sim.Time(0); at <= n.End(); at += sim.Second / 10 {
			n.RunTo(at)
			backlog := 0
			for _, st := range n.Stations() {
				backlog += st.MAC().QueueLen()
			}
			peak = max(peak, backlog)
		}
		res := n.Collect()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
		offers = 0
		for _, s := range res.Streams {
			offers += s.Offered
		}
		if res.TotalPPS() >= 64 || peak < offers/5 {
			t.Fatalf("cell not saturated: %.1f of 64 pps carried, peak backlog %d of %d offers", res.TotalPPS(), peak, offers)
		}
	}
	want := peak*bytesPerBacklogPacket + offers*bytesPerOffer + bytesPerRun
	t.Logf("%d bytes for a peak backlog of %d packets and %d offers; model %d", got, peak, offers, want)
	if limit := uint64(float64(want) * 1.15); got > limit {
		t.Fatalf("%d bytes allocated, want at most %d", got, limit)
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/transport"
)

func TestAddStationAssignsIDsAndNames(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddStation("P1", geom.V(0, 0, 6), MACAFactory())
	b := n.AddStation("B", geom.V(0, 0, 12), MACAFactory())
	if a.ID() == b.ID() {
		t.Fatal("duplicate IDs")
	}
	if a.Name() != "P1" || n.Station("P1") != a || n.Station("B") != b {
		t.Fatal("name lookup broken")
	}
	if n.Station("nope") != nil {
		t.Fatal("unknown name returned a station")
	}
	if len(n.Stations()) != 2 {
		t.Fatal("Stations() wrong")
	}
}

func TestDuplicateStationNamePanics(t *testing.T) {
	n := NewNetwork(1)
	n.AddStation("X", geom.V(0, 0, 6), MACAFactory())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate name")
		}
	}()
	n.AddStation("X", geom.V(1, 0, 6), MACAFactory())
}

func TestSharedPolicyFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shared policy")
		}
	}()
	MACAWFactory(macaw.Options{Policy: backoff.NewSingle(backoff.NewBEB(), false)})
}

func TestUDPStreamOverMACAW(t *testing.T) {
	n := NewNetwork(1)
	p := n.AddStation("P1", geom.V(-4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
	st := n.AddStream(p, b, UDP, 32)
	if st.Name != "P1-B" {
		t.Fatalf("stream name = %q", st.Name)
	}
	res := n.Run(20*sim.Second, 2*sim.Second)
	got := res.PPS("P1-B")
	if got < 30 || got > 33 {
		t.Fatalf("PPS = %v, want ~32", got)
	}
	if res.PPS("nope") != 0 {
		t.Fatal("unknown stream PPS nonzero")
	}
	if st.Offered() < 600 {
		t.Fatalf("offered = %d", st.Offered())
	}
	if !strings.Contains(res.String(), "P1-B") {
		t.Fatal("results table missing stream")
	}
}

func TestTCPStreamOverMACAW(t *testing.T) {
	n := NewNetwork(2)
	p := n.AddStation("P1", geom.V(-4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
	st := n.AddStream(p, b, TCP, 32)
	res := n.Run(20*sim.Second, 2*sim.Second)
	got := res.PPS("P1-B")
	// The full RTS-CTS-DS-DATA-ACK exchange plus a same-cost exchange for
	// every TCP acknowledgement caps a single TCP stream well below the
	// UDP rate (each data+ack pair occupies ~25-30ms of air).
	if got < 20 || got > 33 {
		t.Fatalf("TCP PPS = %v, want 20-33 (ack-exchange-bound)", got)
	}
	if st.TCPSenderStats().Sent == 0 {
		t.Fatal("TCP sender stats empty")
	}
	if st.Kind.String() != "TCP" || UDP.String() != "UDP" {
		t.Fatal("TransportKind strings")
	}
}

func TestWarmupExcludedFromMeasurement(t *testing.T) {
	n := NewNetwork(3)
	p := n.AddStation("P1", geom.V(-4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
	n.AddStream(p, b, UDP, 32)
	res := n.Run(10*sim.Second, 5*sim.Second)
	// ~32pps over a 5s window is ~160 packets; total generated is ~320.
	d := res.Streams[0].Delivered
	if d < 150 || d > 170 {
		t.Fatalf("windowed delivered = %d, want ~160", d)
	}
}

func TestInvalidWarmupPanics(t *testing.T) {
	n := NewNetwork(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n.Run(5*sim.Second, 5*sim.Second)
}

func TestPowerOffSilencesStation(t *testing.T) {
	n := NewNetwork(4)
	p := n.AddStation("P1", geom.V(-4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
	n.AddStream(p, b, UDP, 32)
	n.PowerOff(p, 5*sim.Second)
	res := n.Run(20*sim.Second, 1*sim.Second)
	// Only ~4s of the 19s window carries traffic.
	got := res.Streams[0].Delivered
	if got < 100 || got > 170 {
		t.Fatalf("delivered = %d, want ~128 (stopped at 5s)", got)
	}
	if p.Radio().Enabled() {
		t.Fatal("radio still enabled")
	}
}

func TestMoveStationEnablesStream(t *testing.T) {
	n := NewNetwork(5)
	p := n.AddStation("P1", geom.V(100, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
	n.AddStream(p, b, UDP, 32)
	n.MoveStation(p, 10*sim.Second, geom.V(-4, 0, 6))
	res := n.Run(20*sim.Second, 0)
	got := res.Streams[0].Delivered
	// Nothing flows before the move; afterwards the live traffic plus the
	// MAC backlog accumulated while unreachable drains at channel rate.
	if got < 250 || got > res.Streams[0].Offered {
		t.Fatalf("delivered = %d (offered %d), want >=250 after the move", got, res.Streams[0].Offered)
	}
}

func TestHearingGraphSymmetricAndSorted(t *testing.T) {
	n := NewNetwork(6)
	n.AddStation("A", geom.V(0, 0, 6), MACAFactory())
	n.AddStation("B", geom.V(6, 0, 6), MACAFactory())
	n.AddStation("C", geom.V(30, 0, 6), MACAFactory())
	g := n.HearingGraph()
	if len(g["A"]) != 1 || g["A"][0] != "B" {
		t.Fatalf("A hears %v", g["A"])
	}
	if len(g["B"]) != 1 || g["B"][0] != "A" {
		t.Fatalf("B hears %v", g["B"])
	}
	if len(g["C"]) != 0 {
		t.Fatalf("C hears %v", g["C"])
	}
}

func TestResultsHelpers(t *testing.T) {
	r := Results{Streams: []StreamResult{
		{Name: "a", PPS: 10}, {Name: "b", PPS: 30},
	}}
	if r.TotalPPS() != 40 {
		t.Fatal("TotalPPS")
	}
	if got := r.Rates(); len(got) != 2 || got[0] != 10 {
		t.Fatal("Rates")
	}
	if f := r.Fairness(); f <= 0.5 || f >= 1 {
		t.Fatalf("Fairness = %v", f)
	}
}

// TestResultsStringTable pins String's layout byte for byte: a header, one
// row per stream (a long name widens its column) and the totals line.
func TestResultsStringTable(t *testing.T) {
	r := Results{Streams: []StreamResult{
		{Name: "P1-B", PPS: 12.345, Delivered: 617, Offered: 640, MeanDelay: 1500 * sim.Microsecond, P95Delay: 4 * sim.Millisecond},
		{Name: "a-long-stream-name", PPS: 0, Delivered: 0, Offered: 3},
	}}
	want := "stream            pps  delivered    offered   mean delay    p95 delay\n" +
		"P1-B            12.35        617        640    0.001500s    0.004000s\n" +
		"a-long-stream-name       0.00          0          3    0.000000s    0.000000s\n" +
		"total 12.35 pps, fairness 0.500\n"
	if got := r.String(); got != want {
		t.Fatalf("String:\n%s\nwant:\n%s", got, want)
	}
}

// TestResultsStringLinear bounds what rendering a city-sized Results
// allocates by a small multiple of the table it returns: appending row by
// row to an immutable string copies the table once per row, about 0.9 GB
// (2560x) for these 5000 streams. Rendering into one buffer measures 2.6x;
// the bound is 16x because under the race detector sync.Pool drops fmt's
// printers at random and the same call measures 7.4x.
func TestResultsStringLinear(t *testing.T) {
	r := Results{Streams: make([]StreamResult, 5000)}
	for i := range r.Streams {
		r.Streams[i] = StreamResult{Name: fmt.Sprintf("S%d-B%d", i, i/8), PPS: float64(i % 64), Delivered: i, Offered: 2 * i,
			MeanDelay: sim.Duration(i) * sim.Microsecond, P95Delay: sim.Duration(i) * sim.Millisecond}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := r.String()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("String allocated %d bytes for a %d-byte table", bytes, len(out))
	if bytes > 16*uint64(len(out)) {
		t.Fatalf("String allocated %d bytes for a %d-byte table, want at most 16x", bytes, len(out))
	}
}

func TestCSMAFactoryWorksEndToEnd(t *testing.T) {
	n := NewNetwork(7)
	p := n.AddStation("P1", geom.V(-4, 0, 6), CSMAFactory(csma.Options{ACK: true}))
	b := n.AddStation("B", geom.V(0, 0, 12), CSMAFactory(csma.Options{ACK: true}))
	n.AddStream(p, b, UDP, 16)
	res := n.Run(10*sim.Second, 1*sim.Second)
	if res.PPS("P1-B") < 14 {
		t.Fatalf("CSMA PPS = %v", res.PPS("P1-B"))
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Results {
		n := NewNetwork(42)
		p1 := n.AddStation("P1", geom.V(-4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
		p2 := n.AddStation("P2", geom.V(4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
		b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
		n.AddStream(p1, b, UDP, 64)
		n.AddStream(p2, b, UDP, 64)
		return n.Run(30*sim.Second, 5*sim.Second)
	}
	a, b := run(), run()
	for i := range a.Streams {
		if a.Streams[i].Delivered != b.Streams[i].Delivered {
			t.Fatalf("nondeterministic stream %d: %d vs %d", i, a.Streams[i].Delivered, b.Streams[i].Delivered)
		}
	}
}

func TestDelayStatsPopulated(t *testing.T) {
	n := NewNetwork(9)
	p := n.AddStation("P1", geom.V(-4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
	st := n.AddStream(p, b, UDP, 8) // far below capacity: low, stable delays
	res := n.Run(20*sim.Second, 2*sim.Second)
	r := res.Streams[0]
	if r.MeanDelay <= 0 || r.P95Delay <= 0 {
		t.Fatalf("delay stats empty: %+v", r)
	}
	// An uncontended exchange takes ~20-25ms including contention.
	if r.MeanDelay > 100*sim.Millisecond {
		t.Fatalf("mean delay %v too high for an idle channel", r.MeanDelay)
	}
	if r.P95Delay < r.MeanDelay {
		t.Fatal("p95 below mean")
	}
	if st.NumDelays() == 0 {
		t.Fatal("NumDelays() is 0")
	}
}

// delayStream returns a started stream whose offers 1..k were all made at
// t=0 (no traffic runs: the test drives offer and record by hand).
func delayStream(t *testing.T, k int) (*Network, *Stream) {
	t.Helper()
	n := NewNetwork(1)
	a := n.AddStation("A", geom.V(0, 0, 6), MACAFactory())
	b := n.AddStation("B", geom.V(6, 0, 6), MACAFactory())
	s := n.AddStream(a, b, UDP, 1)
	n.Start(1000*sim.Second, sim.Second)
	for seq := 1; seq <= k; seq++ {
		s.offer(uint32(seq))
	}
	return n, s
}

// TestDelayStatsMatchSortedDelays: Collect's mean and P95, taken from the
// folded delays without a copy, equal the sum over the count and the
// sorted delays indexed at int(0.95n), on delay sets with repeats, with one
// delay, and with deliveries before the window that must not count.
func TestDelayStatsMatchSortedDelays(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 3, 19, 20, 21, 400} {
		n, s := delayStream(t, k+3)
		s.record(sim.Second/2, 1) // before the window: no delay
		var want []sim.Duration
		for seq := 4; seq <= k+3; seq++ {
			d := sim.Second + sim.Duration(rng.Int63n(int64(5*sim.Second)))
			if seq%3 == 0 {
				d = 2 * sim.Second // repeats
			}
			s.record(d, uint32(seq))
			want = append(want, d)
		}
		r := n.Collect().Streams[0]
		var sum sim.Duration
		for _, d := range want {
			sum += d
		}
		slices.Sort(want)
		if s.NumDelays() != k || r.MeanDelay != sum/sim.Duration(k) || r.P95Delay != want[int(0.95*float64(k))] {
			t.Fatalf("k=%d: %d delays, mean %v p95 %v, want %d, %v and %v",
				k, s.NumDelays(), r.MeanDelay, r.P95Delay, k, sum/sim.Duration(k), want[int(0.95*float64(k))])
		}
	}
}

// TestRecordPanicsOnOutOfOrderDelay: EachDelay reads delays in seq order,
// so an in-window arrival below the last recorded seq fails closed, naming
// the stream and both seqs, while one before the window does not.
func TestRecordPanicsOnOutOfOrderDelay(t *testing.T) {
	_, s := delayStream(t, 3)
	s.record(sim.Second/2, 3)
	s.record(2*sim.Second, 2)
	defer func() {
		msg := fmt.Sprint(recover())
		for _, part := range []string{s.Name, "seq 1", "seq 2"} {
			if !strings.Contains(msg, part) {
				t.Fatalf("out-of-order delay panicked with %q, want it to name %q", msg, part)
			}
		}
	}()
	s.record(3*sim.Second, 1)
}

func TestDelayGrowsUnderSaturation(t *testing.T) {
	run := func(rate float64) sim.Duration {
		n := NewNetwork(9)
		p := n.AddStation("P1", geom.V(-4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
		b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
		n.AddStream(p, b, UDP, rate)
		return n.Run(20*sim.Second, 2*sim.Second).Streams[0].MeanDelay
	}
	idle, saturated := run(8), run(64)
	if saturated < 10*idle {
		t.Fatalf("saturation delay %v not far above idle %v", saturated, idle)
	}
}

// captureMAC is a MAC engine that keeps the packets enqueued on it and
// exposes the host callbacks, so a test can complete packets by hand.
type captureMAC struct {
	mac.Engine
	cb  mac.Callbacks
	got []*mac.Packet
}

func (c *captureMAC) Enqueue(p *mac.Packet) { c.got = append(c.got, p) }

// captureStation adds a station whose MAC is a captureMAC.
func captureStation(n *Network, name string) (*Station, *captureMAC) {
	c := &captureMAC{}
	st := n.AddStation(name, geom.V(0, 0, 6), func(env *mac.Env) mac.Engine {
		c.cb = env.Callbacks
		c.Engine = csma.New(env, csma.Options{})
		return c
	})
	return st, c
}

// recycled reports whether p reads as a recycled packet: every field zero
// and an empty payload, whose buffer the next offer reuses.
func recycled(p *mac.Packet) bool {
	q := *p
	q.Payload = nil
	return len(p.Payload) == 0 && reflect.DeepEqual(q, mac.Packet{})
}

// TestPacketRecycling pins the station's packet free list: a completed
// packet comes back zeroed and is reused, payload buffer and all, by the
// next offer; a frame already on the air keeps the payload it was sent
// with; and completing a packet twice panics.
func TestPacketRecycling(t *testing.T) {
	n := NewNetwork(1)
	st, c := captureStation(n, "P")
	rx := n.AddStation("R", geom.V(6, 0, 6), CSMAFactory(csma.Options{}))
	var decoded []uint32
	rx.Handle(func(_ frame.NodeID, seg transport.Segment) { decoded = append(decoded, seg.Seq) })
	seg := transport.Segment{Proto: transport.ProtoUDP, Stream: 1, Kind: transport.KindData, Seq: 1}
	st.SendSegment(rx.ID(), seg, 512)
	first := c.got[0]
	c.cb.NotifySent(first)
	if !recycled(first) {
		t.Fatalf("completed packet not zeroed: %+v", *first)
	}

	seg.Seq = 2
	st.SendSegment(3, seg, 40)
	if c.got[1] != first {
		t.Fatal("the next offer did not reuse the completed packet")
	}
	if p := c.got[1]; p.Dst != 3 || p.Size != 40 {
		t.Fatalf("reused packet carries dst=%d size=%d", p.Dst, p.Size)
	}

	// Radiate the packet as DATA, then, once the frame has ended but
	// before its receive notification fires, recycle the packet and
	// re-offer it with another seq, rewriting its payload buffer.
	air := st.Radio().Transmit(&frame.Frame{Type: frame.DATA, Src: st.ID(), Dst: rx.ID(),
		DataBytes: 512, Seq: 1, Payload: first.Payload})
	n.Sim.AtPriorityCall(n.Sim.Now()+air, -2, func(_, _ any) {
		c.cb.NotifySent(first)
		seg.Seq = 3
		st.SendSegment(rx.ID(), seg, 512)
		if c.got[2] != first {
			t.Error("the re-offer did not reuse the packet on the air")
		}
	}, nil, nil)
	n.Sim.Run(n.Sim.Now() + air)
	if len(decoded) != 1 || decoded[0] != 2 {
		t.Fatalf("receiver decoded seqs %v, want [2]: the frame on the air lost its payload", decoded)
	}

	twice := c.got[2]
	c.cb.NotifySent(twice)
	defer func() {
		if recover() == nil {
			t.Fatal("completing a packet twice did not panic")
		}
	}()
	c.cb.NotifyDropped(twice, mac.DropDisabled)
}

// TestSendSegmentSizeBounds: a packet size the air cannot carry, under 1
// byte or past the 65535 that frame.Frame.DataBytes holds, panics at the
// offer, where narrowing it would send a frame of another size and a
// size-0 packet would later read as completed twice; both bounds
// themselves are sent as they are.
func TestSendSegmentSizeBounds(t *testing.T) {
	n := NewNetwork(1)
	st, c := captureStation(n, "P")
	seg := transport.Segment{Proto: transport.ProtoUDP, Stream: 1, Kind: transport.KindData, Seq: 1}
	for _, size := range []int{1, math.MaxUint16} {
		st.SendSegment(2, seg, size)
		if p := c.got[len(c.got)-1]; int(p.Size) != size {
			t.Errorf("size %d sent as %d", size, p.Size)
		}
	}
	for _, size := range []int{0, -1, math.MaxUint16 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d did not panic", size)
				}
			}()
			st.SendSegment(2, seg, size)
		}()
	}
	if len(c.got) != 2 {
		t.Fatalf("%d packets enqueued, want the 2 in bounds", len(c.got))
	}
}

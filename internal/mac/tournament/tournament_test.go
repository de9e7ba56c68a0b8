package tournament

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
	m         *Tournament
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
		Idle: "IDLE", WaitIdle: "WAITIDLE", Tourn: "TOURN", SendData: "SENDDATA", WFACK: "WFACK",
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

func TestSoloWinnerDelivers(t *testing.T) {
	w := newWorld(1)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	b := w.add(2, geom.V(6, 0, 6), Options{})
	a.m.Enqueue(pkt(2))
	w.s.Run(2 * sim.Second)
	if b.delivered != 1 || a.sent != 1 {
		t.Fatalf("delivered=%d sent=%d", b.delivered, a.sent)
	}
	if a.m.State() != Idle {
		t.Fatalf("state = %v", a.m.State())
	}
	if b.m.Stats().ACKSent != 1 {
		t.Fatal("no ACK sent")
	}
}

func TestContendersAllDrain(t *testing.T) {
	// Three contenders in mutual range play tournaments for the channel;
	// everything must eventually drain to the sink.
	w := newWorld(2)
	d := w.add(4, geom.V(8, 0, 6), Options{})
	contenders := []*station{
		w.add(1, geom.V(0, 0, 6), Options{}),
		w.add(2, geom.V(4, 0, 6), Options{}),
		w.add(3, geom.V(12, 0, 6), Options{}),
	}
	for _, c := range contenders {
		for i := 0; i < 10; i++ {
			c.m.Enqueue(pkt(4))
		}
	}
	w.s.Run(120 * sim.Second)
	if d.delivered != 30 {
		t.Fatalf("delivered = %d of 30", d.delivered)
	}
	var sigs int
	for _, c := range contenders {
		if c.m.QueueLen() != 0 {
			t.Fatalf("queue stuck at %d (state %v)", c.m.QueueLen(), c.m.State())
		}
		sigs += c.m.Sigs()
	}
	if sigs == 0 {
		t.Fatal("no tournament signals were ever transmitted")
	}
}

func TestBroadcastDataNotACKed(t *testing.T) {
	w := newWorld(3)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	b := w.add(2, geom.V(6, 0, 6), Options{})
	a.m.Enqueue(pkt(frame.Broadcast))
	w.s.Run(2 * sim.Second)
	if b.delivered != 1 || a.sent != 1 {
		t.Fatalf("delivered=%d sent=%d", b.delivered, a.sent)
	}
	if b.m.Stats().ACKSent != 0 {
		t.Fatal("broadcast data must not be ACKed")
	}
}

func TestRetryLimitDrops(t *testing.T) {
	w := newWorld(4)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	a.m.Enqueue(pkt(9)) // nobody there: every ACK times out
	w.s.Run(60 * sim.Second)
	if a.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", a.dropped)
	}
	if a.m.State() != Idle || a.m.QueueLen() != 0 {
		t.Fatalf("state=%v queue=%d", a.m.State(), a.m.QueueLen())
	}
}

func TestHaltDrainsQueueAndSilences(t *testing.T) {
	w := newWorld(5)
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
	if a.sent != 0 || a.m.Sigs() != 0 {
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
		w := newWorld(6)
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
	drivePair(w1, a1, 5, 30*sim.Millisecond) // park mid-traffic
	drivePair(w2, a2, 5, 30*sim.Millisecond)
	same("parked")
	for _, a := range []*station{a1, a2} {
		if err := a.m.SetWindow(8); err != nil {
			t.Fatal(err)
		}
	}
	drivePair(w1, a1, 5, sim.Second)
	drivePair(w2, a2, 5, sim.Second)
	same("after the retune")
}

// TestAdoptFromRefusesWrongEngineAndOptions: options and retuners name one
// configuration. An engine built with Window 8 and one built with the
// defaults, then retuned to tournament.window 8 before any traffic, run byte for
// byte alike, mid-traffic and after; an engine left at the defaults dumps a
// different state.
func TestAdoptFromRefusesWrongEngineAndOptions(t *testing.T) {
	run := func(opt Options, retune bool) string {
		w := newWorld(7)
		a := w.add(1, geom.V(0, 0, 6), opt)
		w.add(2, geom.V(6, 0, 6), Options{})
		if retune {
			if err := a.m.SetWindow(8); err != nil {
				t.Fatal(err)
			}
		}
		drivePair(w, a, 20, 30*sim.Millisecond) // mid-traffic
		mid := string(statecheck.Dump(a.m))
		drivePair(w, a, 0, sim.Second)
		return mid + string(statecheck.Dump(a.m))
	}
	built := run(Options{Window: 8}, false)
	if got := run(Options{}, true); got != built {
		t.Fatalf("retuned engine diverges from one built with the options:\n got %q\nwant %q", got, built)
	}
	if run(Options{}, false) == built {
		t.Fatal("the default engine dumps the state of the retuned one")
	}
}

func TestWindowRetuneFailsClosedAtFloor(t *testing.T) {
	w := newWorld(8)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	if got := a.m.Options().Window; got != 32 {
		t.Fatalf("default window = %d, want 32", got)
	}
	if err := a.m.SetWindow(2); err != nil { // exactly the floor is legal
		t.Fatalf("SetWindow(2): %v", err)
	}
	if err := a.m.SetWindow(1); err == nil {
		t.Fatal("SetWindow(1) succeeded (floor is 2)")
	}
	if got := a.m.Options().Window; got != 2 {
		t.Fatalf("window = %d after rejected retune, want 2", got)
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

package token

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

type station struct {
	m         *Token
	radio     *phy.Radio
	delivered int
	sent      int
}

type world struct {
	s      *sim.Simulator
	medium *phy.Medium
	nodes  []*station
}

// newRing builds n stations in a single cell sharing one token ring.
func newRing(seed int64, n int, opt Options) *world {
	s := sim.New(seed)
	w := &world{s: s, medium: phy.New(s, phy.DefaultParams())}
	var ring []frame.NodeID
	for i := 0; i < n; i++ {
		ring = append(ring, frame.NodeID(i+1))
	}
	opt.Ring = ring
	positions := []geom.Vec3{
		{X: 0, Y: 0, Z: 6}, {X: 4, Y: 0, Z: 6}, {X: 0, Y: 4, Z: 6},
		{X: -4, Y: 0, Z: 6}, {X: 0, Y: -4, Z: 6}, {X: 3, Y: 3, Z: 6},
		{X: -3, Y: -3, Z: 6}, {X: 3, Y: -3, Z: 6},
	}
	for i := 0; i < n; i++ {
		st := &station{}
		st.radio = w.medium.Attach(ring[i], positions[i], nil)
		env := &mac.Env{
			Sim: s, Radio: st.radio, Rand: s.NewRand(), Cfg: mac.DefaultConfig(),
			Callbacks: mac.Callbacks{
				Deliver: func(frame.NodeID, []byte) { st.delivered++ },
				Sent:    func(*mac.Packet) { st.sent++ },
			},
		}
		st.m = New(env, opt)
		w.nodes = append(w.nodes, st)
	}
	return w
}

func pkt(dst frame.NodeID) *mac.Packet {
	return &mac.Packet{Dst: dst, Size: frame.DefaultDataBytes, Payload: []byte("x")}
}

func TestStateStrings(t *testing.T) {
	if NoToken.String() != "NOTOKEN" || Holding.String() != "HOLDING" || Passing.String() != "PASSING" {
		t.Fatal("state names")
	}
	if State(9).String() != "State(9)" {
		t.Fatal("unknown state name")
	}
}

func TestNotInRingPanics(t *testing.T) {
	s := sim.New(1)
	m := phy.New(s, phy.DefaultParams())
	radio := m.Attach(99, geom.V(0, 0, 6), nil)
	env := &mac.Env{Sim: s, Radio: radio, Rand: s.NewRand(), Cfg: mac.DefaultConfig()}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for station outside the ring")
		}
	}()
	New(env, Options{Ring: []frame.NodeID{1, 2}})
}

func TestSingleTransferCompletes(t *testing.T) {
	w := newRing(1, 2, Options{})
	w.nodes[0].m.Enqueue(pkt(2))
	w.s.Run(2 * sim.Second)
	if w.nodes[1].delivered != 1 || w.nodes[0].sent != 1 {
		t.Fatalf("delivered=%d sent=%d", w.nodes[1].delivered, w.nodes[0].sent)
	}
}

func TestRoundRobinIsPerfectlyFair(t *testing.T) {
	// Six saturating pads all sending to station 1: the token's
	// round-robin service is exactly fair, with no backoff dynamics.
	w := newRing(2, 6, Options{})
	for i := 1; i < 6; i++ {
		for j := 0; j < 500; j++ {
			w.nodes[i].m.Enqueue(pkt(1))
		}
	}
	w.s.Run(30 * sim.Second)
	sent := make([]int, 6)
	total := 0
	for i := 1; i < 6; i++ {
		sent[i] = w.nodes[i].sent
		total += sent[i]
	}
	if total < 500 {
		t.Fatalf("total sent %d too low", total)
	}
	for i := 1; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			diff := sent[i] - sent[j]
			if diff < -2 || diff > 2 {
				t.Fatalf("round robin uneven: %v", sent[1:])
			}
		}
	}
}

func TestNoCollisionsEver(t *testing.T) {
	w := newRing(3, 5, Options{})
	for i := 0; i < 5; i++ {
		for j := 0; j < 200; j++ {
			w.nodes[i].m.Enqueue(pkt(frame.NodeID((i+1)%5 + 1)))
		}
	}
	w.s.Run(30 * sim.Second)
	if c := w.medium.Counters().Corrupted; c != 0 {
		t.Fatalf("token access produced %d corrupted receptions", c)
	}
}

func TestDeadSuccessorIsSkipped(t *testing.T) {
	w := newRing(4, 3, Options{})
	// Station 2 dies immediately; 1 and 3 keep exchanging data.
	w.nodes[1].radio.SetEnabled(false)
	for j := 0; j < 50; j++ {
		w.nodes[0].m.Enqueue(pkt(3))
		w.nodes[2].m.Enqueue(pkt(1))
	}
	w.s.Run(30 * sim.Second)
	if w.nodes[2].delivered < 50 || w.nodes[0].delivered < 50 {
		t.Fatalf("deliveries with dead member: %d / %d", w.nodes[2].delivered, w.nodes[0].delivered)
	}
	skips := w.nodes[0].m.Skips + w.nodes[2].m.Skips
	if skips == 0 {
		t.Fatal("dead successor was never skipped")
	}
}

func TestTokenRegeneratedAfterHolderDies(t *testing.T) {
	w := newRing(5, 3, Options{})
	for j := 0; j < 200; j++ {
		w.nodes[1].m.Enqueue(pkt(3))
		w.nodes[2].m.Enqueue(pkt(2))
	}
	// Kill station 1 (the bootstrap holder) mid-run while it may hold
	// the token.
	w.s.At(2*sim.Second, func() { w.nodes[0].radio.SetEnabled(false) })
	w.s.Run(30 * sim.Second)
	// Traffic between the survivors must continue after the death.
	if w.nodes[1].delivered < 150 || w.nodes[2].delivered < 150 {
		t.Fatalf("ring stalled after holder death: %d / %d",
			w.nodes[1].delivered, w.nodes[2].delivered)
	}
	regen := w.nodes[1].m.Regenerations + w.nodes[2].m.Regenerations
	skips := w.nodes[1].m.Skips + w.nodes[2].m.Skips
	if regen+skips == 0 {
		t.Fatal("no recovery events despite a dead member")
	}
}

func TestThroughputNearChannelCapacity(t *testing.T) {
	// With one saturating sender and MaxPerToken 1, each data packet
	// costs DATA + (ring-1) token passes; with a 2-station ring the
	// overhead is one 30-byte token per 512-byte packet.
	w := newRing(6, 2, Options{})
	for j := 0; j < 5000; j++ {
		w.nodes[0].m.Enqueue(pkt(2))
	}
	w.s.Run(30 * sim.Second)
	pps := float64(w.nodes[1].delivered) / 30
	// Ideal: 1/(16ms + 2*0.94ms + watch gaps) ~ 45-55 pps.
	if pps < 40 {
		t.Fatalf("token throughput %.1f pps too low", pps)
	}
}

func TestQueueLenAndStats(t *testing.T) {
	w := newRing(7, 2, Options{})
	w.nodes[0].m.Enqueue(pkt(2))
	w.nodes[0].m.Enqueue(pkt(2))
	if w.nodes[0].m.QueueLen() != 2 {
		t.Fatal("QueueLen")
	}
	w.s.Run(5 * sim.Second)
	if w.nodes[0].m.Stats().DataSent != 2 || w.nodes[1].m.Stats().DataReceived != 2 {
		t.Fatalf("stats: %+v %+v", w.nodes[0].m.Stats(), w.nodes[1].m.Stats())
	}
	if w.nodes[0].m.State() != Passing && w.nodes[0].m.State() != NoToken && w.nodes[0].m.State() != Holding {
		t.Fatal("state accessor broken")
	}
}

// TestNeverWedgesUnderArbitraryFrames: random frames (including spurious
// TOKENs, which can momentarily duplicate the token) must never leave the
// ring unable to carry traffic.
func TestNeverWedgesUnderArbitraryFrames(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		w := newRing(seed, 3, Options{})
		r := w.s.NewRand()
		for i := 0; i < 5; i++ {
			w.nodes[0].m.Enqueue(pkt(2))
			w.nodes[1].m.Enqueue(pkt(3))
		}
		types := []frame.Type{frame.TOKEN, frame.DATA, frame.RTS, frame.ACK}
		for i := 0; i < 200; i++ {
			nd := w.nodes[r.Intn(3)]
			f := &frame.Frame{
				Type: types[r.Intn(len(types))],
				Src:  frame.NodeID(1 + r.Intn(4)),
				Dst:  frame.NodeID(1 + r.Intn(4)),
				Seq:  uint32(r.Intn(5)),
			}
			if f.Src != nd.m.Env.ID() && !nd.m.Env.Radio.Transmitting() {
				nd.m.RadioReceive(f)
			}
			w.s.Run(w.s.Now() + sim.Duration(r.Intn(4))*sim.Millisecond)
		}
		w.s.Run(w.s.Now() + 200*sim.Second)
		for i, nd := range w.nodes {
			if nd.m.QueueLen() > 0 {
				t.Fatalf("seed %d: station %d has %d packets stuck (state %v)",
					seed, i+1, nd.m.QueueLen(), nd.m.State())
			}
		}
	}
}

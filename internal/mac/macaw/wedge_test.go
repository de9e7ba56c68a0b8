package macaw

import (
	"fmt"
	"math/rand"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
)

// TestNeverWedgesUnderArbitraryFrames injects random (often nonsensical)
// frame sequences straight into the engine across all option combinations
// and checks the liveness invariant: whenever the station has pending work
// or is mid-exchange, a timer is armed — i.e. no input sequence can park
// the FSM in a state it cannot leave.
func TestNeverWedgesUnderArbitraryFrames(t *testing.T) {
	options := []Options{
		{Exchange: Basic},
		{Exchange: WithACK},
		DefaultOptions(),
		{Exchange: Full, PerStream: true, RRTS: true, NACK: true},
		func() Options { o := DefaultOptions(); o.PiggybackACK = true; return o }(),
		func() Options { o := DefaultOptions(); o.CarrierSense = true; return o }(),
	}
	types := []frame.Type{frame.RTS, frame.CTS, frame.DS, frame.DATA, frame.ACK, frame.RRTS, frame.NACK, frame.TOKEN}
	for oi, opt := range options {
		opt := opt
		t.Run(fmt.Sprintf("options%d", oi), func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				w := newWorld(seed)
				a := w.add(1, geom.V(0, 0, 6), opt)
				r := rand.New(rand.NewSource(seed))
				// Some genuine work so the engine has reasons to act.
				for i := 0; i < 3; i++ {
					a.m.Enqueue(pkt(frame.NodeID(2 + r.Intn(3))))
				}
				for i := 0; i < 400; i++ {
					f := &frame.Frame{
						Type:          types[r.Intn(len(types))],
						Src:           frame.NodeID(1 + r.Intn(5)),
						Dst:           frame.NodeID(1 + r.Intn(5)),
						DataBytes:     uint16(r.Intn(600)),
						Seq:           uint32(r.Intn(6)),
						ESN:           uint32(r.Intn(6)),
						LocalBackoff:  int16(r.Intn(70)),
						RemoteBackoff: int16(r.Intn(70) - 1),
						Multicast:     r.Intn(8) == 0,
						AckRequested:  r.Intn(2) == 0,
						HasAck:        r.Intn(4) == 0,
						Ack:           uint32(r.Intn(6)),
					}
					if f.Src == 1 {
						f.Src = 5 // a station never hears itself
					}
					// Deliver directly when the radio isn't mid-transmission,
					// interleaved with simulated time.
					if !a.m.Env.Radio.Transmitting() {
						a.m.RadioReceive(f)
						a.m.RadioCarrier(r.Intn(2) == 0)
					}
					w.s.Run(w.s.Now() + sim.Duration(r.Intn(3))*sim.Millisecond)
					checkLive(t, w, a.m, seed, i)
				}
				// Drain: with injections stopped, pending real work must
				// eventually resolve (delivered or dropped).
				w.s.Run(w.s.Now() + 120*sim.Second)
				if a.m.QueueLen() > 0 {
					t.Fatalf("seed %d: %d packets stuck after drain (state %v, timer %v)",
						seed, a.m.QueueLen(), a.m.State(), a.m.TimerWhen())
				}
			}
		})
	}
}

// checkLive asserts the liveness invariant at one instant.
func checkLive(t *testing.T, w *world, m *MACAW, seed int64, step int) {
	t.Helper()
	if m.State() == Idle {
		return
	}
	if m.TimerWhen() < 0 && w.s.Pending() == 0 {
		t.Fatalf("seed %d step %d: state %v with no timer and no pending events — wedged",
			seed, step, m.State())
	}
}

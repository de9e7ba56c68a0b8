package phy

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
)

// recorder is a test Handler that logs everything it hears. It records
// frames by value: the pointer a handler gets is valid for the call only.
type recorder struct {
	received  []frame.Frame
	corrupted []frame.Frame
	carrier   []bool
}

func (h *recorder) RadioReceive(f *frame.Frame)   { h.received = append(h.received, *f) }
func (h *recorder) RadioCarrier(busy bool)        { h.carrier = append(h.carrier, busy) }
func (h *recorder) RadioCorrupted(f *frame.Frame) { h.corrupted = append(h.corrupted, *f) }

func newTestMedium(t *testing.T) (*sim.Simulator, *Medium) {
	t.Helper()
	s := sim.New(1)
	return s, New(s, DefaultParams())
}

func ctrl(ty frame.Type, src, dst frame.NodeID) *frame.Frame {
	return &frame.Frame{Type: ty, Src: src, Dst: dst, DataBytes: frame.DefaultDataBytes}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.BitrateBPS != 256000 {
		t.Errorf("bitrate = %d, want 256000", p.BitrateBPS)
	}
	// Capture distance ratio should be ~1.5 (paper: "a distance ratio of
	// ~1.5" for 10 dB).
	ratio := math.Pow(p.CaptureRatio(), 1/p.Gamma)
	if ratio < 1.4 || ratio > 1.55 {
		t.Errorf("capture distance ratio = %v, want ~1.47", ratio)
	}
	// Threshold equals the gain exactly at 10 ft.
	g := NearField{Gamma: p.Gamma, MinDist: p.MinDist}.Gain(geom.V(0, 0, 0), geom.V(10, 0, 0))
	if math.Abs(g-p.Threshold()) > 1e-12 {
		t.Errorf("threshold %v != gain at 10ft %v", p.Threshold(), g)
	}
}

func TestNearFieldMonotoneDecay(t *testing.T) {
	n := NearField{Gamma: 6, MinDist: 0.25}
	prev := math.Inf(1)
	for d := 0.5; d < 30; d += 0.5 {
		g := n.Gain(geom.V(0, 0, 0), geom.V(d, 0, 0))
		if g >= prev {
			t.Fatalf("gain not strictly decreasing at d=%v", d)
		}
		prev = g
	}
}

func TestNearFieldMinDistClamp(t *testing.T) {
	n := NearField{Gamma: 6, MinDist: 0.25}
	at0 := n.Gain(geom.V(0, 0, 0), geom.V(0, 0, 0))
	atClamp := n.Gain(geom.V(0, 0, 0), geom.V(0.25, 0, 0))
	if math.IsInf(at0, 1) || at0 != atClamp {
		t.Fatalf("MinDist clamp broken: %v vs %v", at0, atClamp)
	}
}

func TestCubeQuantizedUsesCubeCenter(t *testing.T) {
	inner := NearField{Gamma: 6, MinDist: 0.25}
	c := CubeQuantized{Inner: inner}
	src := geom.V(0, 0, 0)
	// Both points are in cube (5,0,0), so quantized gain must be equal.
	g1 := c.Gain(src, geom.V(5.1, 0.2, 0.3))
	g2 := c.Gain(src, geom.V(5.9, 0.8, 0.6))
	if g1 != g2 {
		t.Fatalf("points in the same cube got different gains: %v vs %v", g1, g2)
	}
	want := inner.Gain(geom.V(0.5, 0.5, 0.5), geom.V(5.5, 0.5, 0.5))
	if g1 != want {
		t.Fatalf("quantized gain %v, want gain between cube centers %v", g1, want)
	}
}

// Property: cube quantization perturbs gain by a bounded factor for
// building-scale distances.
func TestQuickCubeQuantizationBounded(t *testing.T) {
	inner := NearField{Gamma: 6, MinDist: 0.25}
	c := CubeQuantized{Inner: inner}
	f := func(x, y, z float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 3
			}
			return 2 + math.Abs(math.Mod(v, 20))
		}
		dst := geom.V(clamp(x), clamp(y), clamp(z))
		src := geom.V(0, 0, 0)
		exact := inner.Gain(src, dst)
		quant := c.Gain(src, dst)
		d := src.Dist(dst)
		// Worst-case distance perturbation is a half-diagonal per end.
		e := 2 * geom.MaxQuantizationError
		worst := math.Pow((d+e)/math.Max(d-e, 0.25), 6)
		return quant <= exact*worst*1.001 && quant >= exact/worst/1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBooleanRange(t *testing.T) {
	p := BooleanRange(10)
	if p.Gain(geom.V(0, 0, 0), geom.V(10, 0, 0)) != 1 {
		t.Fatal("in-range pair has no gain")
	}
	if p.Gain(geom.V(0, 0, 0), geom.V(10.01, 0, 0)) != 0 {
		t.Fatal("out-of-range pair has gain")
	}
}

func TestCleanDeliveryInRange(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(6, 0, 6), bh)
	f := ctrl(frame.RTS, 1, 2)
	air := a.Transmit(f)
	if air != 937500*sim.Nanosecond {
		t.Fatalf("control airtime = %v", air)
	}
	s.RunAll()
	if len(bh.received) != 1 || !reflect.DeepEqual(bh.received[0], *f) {
		t.Fatalf("b received %v, want %v", bh.received, *f)
	}
	c := m.Counters()
	if c.Transmissions != 1 || c.Delivered != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestNoDeliveryOutOfRange(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(20, 0, 6), bh)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(bh.received) != 0 {
		t.Fatalf("out-of-range station received %v", bh.received)
	}
}

func TestOverhearingThirdParty(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	m.Attach(2, geom.V(6, 0, 6), &recorder{})
	ch := &recorder{}
	m.Attach(3, geom.V(3, 3, 6), ch)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(ch.received) != 1 {
		t.Fatalf("in-range overhearer got %d frames, want 1", len(ch.received))
	}
}

func TestCollisionAtReceiver(t *testing.T) {
	// Hidden-terminal geometry: A and C both in range of B but not of
	// each other; simultaneous transmissions collide at B.
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(8, 0, 6), bh)
	c := m.Attach(3, geom.V(16, 0, 6), nil)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	c.Transmit(ctrl(frame.RTS, 3, 2))
	s.RunAll()
	if len(bh.received) != 0 {
		t.Fatalf("collided frames delivered: %v", bh.received)
	}
	if got := m.Counters().Corrupted; got != 2 {
		t.Fatalf("corrupted = %d, want 2", got)
	}
	if len(bh.corrupted) != 2 {
		t.Fatalf("corruption observer saw %d, want 2", len(bh.corrupted))
	}
}

func TestLateStarterCorruptsOngoingReception(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(8, 0, 6), bh)
	c := m.Attach(3, geom.V(16, 0, 6), nil)
	a.Transmit(&frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 512})
	// C starts mid-way through A's 16 ms data packet.
	s.After(8*sim.Millisecond, func() { c.Transmit(ctrl(frame.RTS, 3, 2)) })
	s.RunAll()
	if len(bh.received) != 0 {
		t.Fatal("reception survived mid-packet interference")
	}
}

func TestCaptureCloseTransmitterWins(t *testing.T) {
	// Receiver very close to A and far (but in range) from C: A's signal
	// exceeds C's by more than 10 dB, so A is captured cleanly.
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(2, 0, 6), bh) // 2 ft from A
	c := m.Attach(3, geom.V(9, 0, 6), nil)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	c.Transmit(ctrl(frame.RTS, 3, 2))
	s.RunAll()
	var fromA int
	for _, f := range bh.received {
		if f.Src == 1 {
			fromA++
		}
	}
	if fromA != 1 {
		t.Fatalf("capture failed: received %v", bh.received)
	}
}

func TestNoCaptureBelowTenDB(t *testing.T) {
	// Distance ratio < 1.47 means a power ratio < 10 dB: both lost.
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(5, 0, 6), bh)
	c := m.Attach(3, geom.V(11, 0, 6), nil) // 6 ft from B: ratio 1.2
	a.Transmit(ctrl(frame.RTS, 1, 2))
	c.Transmit(ctrl(frame.RTS, 3, 2))
	s.RunAll()
	if len(bh.received) != 0 {
		t.Fatalf("capture below 10 dB: %v", bh.received)
	}
}

func TestHalfDuplexTransmitterDeaf(t *testing.T) {
	s, m := newTestMedium(t)
	ah := &recorder{}
	a := m.Attach(1, geom.V(0, 0, 6), ah)
	b := m.Attach(2, geom.V(6, 0, 6), nil)
	a.Transmit(&frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 512})
	s.After(1*sim.Millisecond, func() { b.Transmit(ctrl(frame.CTS, 2, 1)) })
	s.RunAll()
	if len(ah.received) != 0 {
		t.Fatalf("transmitting radio received %v", ah.received)
	}
}

func TestReceptionAbortedWhenReceiverTransmits(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	b := m.Attach(2, geom.V(6, 0, 6), bh)
	a.Transmit(&frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 512})
	s.After(2*sim.Millisecond, func() { b.Transmit(ctrl(frame.RTS, 2, 1)) })
	s.RunAll()
	if len(bh.received) != 0 {
		t.Fatal("reception survived receiver's own transmission")
	}
	if m.Counters().Aborted == 0 {
		t.Fatal("no aborted reception counted")
	}
}

func TestCarrierSenseTransitions(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(6, 0, 6), bh)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(bh.carrier) != 2 || bh.carrier[0] != true || bh.carrier[1] != false {
		t.Fatalf("carrier transitions = %v, want [true false]", bh.carrier)
	}
}

func TestCarrierNotSensedOutOfRange(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	ch := &recorder{}
	m.Attach(3, geom.V(25, 0, 6), ch)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(ch.carrier) != 0 {
		t.Fatalf("far station sensed carrier: %v", ch.carrier)
	}
}

func TestDisabledRadioSilent(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	b := m.Attach(2, geom.V(6, 0, 6), bh)
	b.SetEnabled(false)
	if b.Enabled() {
		t.Fatal("SetEnabled(false) ignored")
	}
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(bh.received) != 0 {
		t.Fatal("disabled radio received a frame")
	}
	// A disabled transmitter radiates nothing.
	ah := &recorder{}
	a.SetHandler(ah)
	b.Transmit(ctrl(frame.RTS, 2, 1))
	s.RunAll()
	if len(ah.received) != 0 {
		t.Fatal("frame from disabled radio was delivered")
	}
}

// TestNotificationKeepsItsHandler installs a new handler between a
// delivery's scheduling and its firing, twice: the delivery reaches the
// handler installed when it was scheduled, first the one the radio record
// holds, then one in a record of its own, and the next delivery reaches the
// new handler.
func TestNotificationKeepsItsHandler(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	hs := []*recorder{{}, {}, {}}
	b := m.Attach(2, geom.V(6, 0, 6), hs[0])
	for i, next := range hs[1:] {
		air := a.Transmit(ctrl(frame.RTS, 1, 2))
		// The frame's end schedules the delivery after this event, at
		// the same instant and priority.
		s.AtPriority(s.Now()+air, -1, func() { b.SetHandler(next) })
		s.RunAll()
		if got, want := len(hs[i].received), 1; got != want {
			t.Fatalf("handler %d received %d frames, want %d", i, got, want)
		}
		if len(next.received) != 0 {
			t.Fatalf("handler %d received a frame scheduled for handler %d", i+1, i)
		}
	}
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(hs[2].received) != 1 || len(hs[1].received) != 1 {
		t.Fatalf("after the last install: handlers received %d and %d frames, want 1 and 1",
			len(hs[1].received), len(hs[2].received))
	}
}

func TestReenabledRadioHearsAgain(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	b := m.Attach(2, geom.V(6, 0, 6), bh)
	b.SetEnabled(false)
	b.SetEnabled(true)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(bh.received) != 1 {
		t.Fatal("re-enabled radio did not hear")
	}
}

func TestMobilityChangesReachability(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	b := m.Attach(2, geom.V(30, 0, 6), bh)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(bh.received) != 0 {
		t.Fatal("received while far away")
	}
	b.SetPos(geom.V(6, 0, 6))
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(bh.received) != 1 {
		t.Fatal("did not receive after moving into range")
	}
}

func TestDestLossNoise(t *testing.T) {
	s, m := newTestMedium(t)
	m.SetNoise(DestLoss{P: 1.0})
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(6, 0, 6), bh)
	ch := &recorder{}
	m.Attach(3, geom.V(3, 3, 6), ch)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(bh.received) != 0 {
		t.Fatal("DestLoss{1} delivered to destination")
	}
	if len(ch.received) != 1 {
		t.Fatal("DestLoss corrupted an overhear")
	}
	if m.Counters().NoiseDropped != 1 {
		t.Fatalf("NoiseDropped = %d, want 1", m.Counters().NoiseDropped)
	}
}

func TestUniformLossAffectsOverhears(t *testing.T) {
	s, m := newTestMedium(t)
	m.SetNoise(UniformLoss{P: 1.0})
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	ch := &recorder{}
	m.Attach(3, geom.V(3, 3, 6), ch)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(ch.received) != 0 {
		t.Fatal("UniformLoss{1} delivered")
	}
}

func TestRegionLoss(t *testing.T) {
	s, m := newTestMedium(t)
	m.SetNoise(RegionLoss{P: 1.0, InRegion: func(p geom.Vec3) bool { return p.X < 10 }})
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(6, 0, 6), bh) // inside region
	a.Transmit(ctrl(frame.RTS, 1, 2))
	s.RunAll()
	if len(bh.received) != 0 {
		t.Fatal("RegionLoss delivered inside region")
	}
}

func TestMultiNoise(t *testing.T) {
	n := MultiNoise{NoNoise{}, UniformLoss{P: 1.0}}
	if !n.Corrupts(sim.New(1).NewRand(), nil, nil) {
		t.Fatal("MultiNoise ignored a corrupting component")
	}
	n2 := MultiNoise{NoNoise{}, NoNoise{}}
	if n2.Corrupts(sim.New(1).NewRand(), nil, nil) {
		t.Fatal("MultiNoise corrupted with benign components")
	}
	m := New(sim.New(1), DefaultParams())
	m.SetNoise(nil)
	if m.noise == nil {
		t.Fatal("SetNoise(nil) left nil model")
	}
}

func TestInRangePredicate(t *testing.T) {
	_, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	b := m.Attach(2, geom.V(6, 0, 6), nil)
	c := m.Attach(3, geom.V(30, 0, 6), nil)
	if !m.InRange(a, b) || m.InRange(a, c) {
		t.Fatal("InRange predicate wrong")
	}
}

func TestRangeIsSymmetric(t *testing.T) {
	// "our technology is symmetric: if a station A can hear a station B,
	// then station B can hear the station A".
	_, m := newTestMedium(t)
	radios := []*Radio{
		m.Attach(1, geom.V(0, 0, 12), nil),
		m.Attach(2, geom.V(6, 0, 6), nil),
		m.Attach(3, geom.V(13, 2, 6), nil),
		m.Attach(4, geom.V(20, 5, 12), nil),
	}
	for _, a := range radios {
		for _, b := range radios {
			if m.InRange(a, b) != m.InRange(b, a) {
				t.Fatalf("asymmetric range between %v and %v", a.ID(), b.ID())
			}
		}
	}
}

func TestTransmitWrongSrcPanics(t *testing.T) {
	_, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched src")
		}
	}()
	a.Transmit(ctrl(frame.RTS, 9, 2))
}

func TestDoubleTransmitPanics(t *testing.T) {
	_, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	a.Transmit(ctrl(frame.RTS, 1, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for concurrent transmit")
		}
	}()
	a.Transmit(ctrl(frame.RTS, 1, 2))
}

func TestBackToBackTransmissionsBothDelivered(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(6, 0, 6), bh)
	air := a.Transmit(ctrl(frame.DS, 1, 2))
	s.After(air, func() { a.Transmit(&frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 512}) })
	s.RunAll()
	if len(bh.received) != 2 {
		t.Fatalf("received %d frames, want 2 (DS then DATA)", len(bh.received))
	}
	if bh.received[0].Type != frame.DS || bh.received[1].Type != frame.DATA {
		t.Fatalf("order = %v, %v", bh.received[0].Type, bh.received[1].Type)
	}
}

func TestCountersAccumulate(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	m.Attach(2, geom.V(6, 0, 6), &recorder{})
	for i := 0; i < 3; i++ {
		a.Transmit(ctrl(frame.RTS, 1, 2))
		s.RunAll()
	}
	c := m.Counters()
	if c.Transmissions != 3 || c.Delivered != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

func BenchmarkMediumScaling(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		n := n
		b.Run(fmt.Sprintf("stations%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sim.New(1)
				m := New(s, DefaultParams())
				radios := make([]*Radio, n)
				for j := 0; j < n; j++ {
					radios[j] = m.Attach(frame.NodeID(j+1), geom.V(float64(j%8), float64(j/8), 6), &recorder{})
				}
				// A rolling pattern of overlapping transmissions.
				for j := 0; j < 64; j++ {
					tx := radios[j%n]
					at := sim.Duration(j) * 500 * sim.Microsecond
					s.At(at, func() {
						if !tx.Transmitting() {
							tx.Transmit(ctrl(frame.RTS, tx.ID(), frame.NodeID(1)))
						}
					})
				}
				s.RunAll()
			}
		})
	}
}

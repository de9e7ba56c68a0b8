package phy

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// The medium owns every frame in flight by value: Transmit copies the
// caller's frame, and the pointer a handler receives is the medium's copy,
// valid for the call only. These tests pin that contract; the pooled
// records that make it allocation-free are pinned by
// TestSteadyStateAllocationFree.

// TestTransmitCopiesFrame: the caller may reuse its frame, and rewrite its
// payload bytes, as soon as Transmit returns; receivers still get what was
// radiated.
func TestTransmitCopiesFrame(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(6, 0, 6), bh)
	payload := []byte("first")
	f := &frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 512, Seq: 7, Payload: payload}
	a.Transmit(f)
	copy(payload, "fifth")
	*f = frame.Frame{Type: frame.ACK, Src: 1, Dst: 9, Seq: 99, Payload: []byte("second")}
	s.RunAll()
	if len(bh.received) != 1 {
		t.Fatalf("received %d frames, want 1", len(bh.received))
	}
	got := bh.received[0]
	if got.Type != frame.DATA || got.Dst != 2 || got.Seq != 7 || string(got.Payload) != "first" {
		t.Fatalf("receiver got %v seq=%d payload=%q, want the frame as transmitted", &got, got.Seq, got.Payload)
	}
}

// relayer transmits a frame of its own from inside RadioReceive.
type relayer struct {
	recorder
	radio *Radio
}

func (h *relayer) RadioReceive(f *frame.Frame) {
	h.recorder.RadioReceive(f)
	if !h.radio.Transmitting() {
		h.radio.Transmit(&frame.Frame{Type: frame.CTS, Src: h.radio.ID(), Dst: f.Src, Seq: 1000})
	}
}

// TestNoEarlyRecycle: a transmission record, and the frame it owns, stays
// alive until its last notification fires, even when an earlier receiver
// starts a new transmission on the same medium from its handler.
func TestNoEarlyRecycle(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &relayer{}
	bh.radio = m.Attach(2, geom.V(6, 0, 6), bh)
	ch := &recorder{}
	m.Attach(3, geom.V(3, 5, 6), ch)
	a.Transmit(&frame.Frame{Type: frame.RTS, Src: 1, Dst: 2, DataBytes: 512, Seq: 5})
	s.RunAll()
	if len(bh.received) != 1 || bh.received[0].Type != frame.RTS {
		t.Fatalf("first receiver got %v, want the RTS", bh.received)
	}
	if len(ch.received) == 0 {
		t.Fatal("second receiver got nothing")
	}
	got := ch.received[0]
	if got.Type != frame.RTS || got.Src != 1 || got.Seq != 5 {
		t.Fatalf("second receiver got %v seq=%d, want the RTS from N1", &got, got.Seq)
	}
}

// barrierer parks the clock at a barrier from inside its first receive
// notification, when armed with a simulator — it stops the run and
// compacts the event queue, as a sweep cell's delta barrier does — while a
// later receiver's notification of the same frame is still pending. An
// unarmed one only records.
type barrierer struct {
	recorder
	s *sim.Simulator
}

func (h *barrierer) RadioReceive(f *frame.Frame) {
	h.recorder.RadioReceive(f)
	if s := h.s; s != nil {
		h.s = nil
		s.Stop()
		s.ForceCompact()
	}
}

// TestAdoptFailsClosedWhileDraining: a barrier that falls while an ended
// transmission still has notifications pending loses none of them. The
// later receiver gets the frame as radiated once the run resumes, and the
// medium ends in the state of an uninterrupted run.
func TestAdoptFailsClosedWhileDraining(t *testing.T) {
	build := func(h Handler) (*sim.Simulator, *Medium, *Radio, *recorder) {
		s, m := newTestMedium(t)
		a := m.Attach(1, geom.V(0, 0, 6), nil)
		m.Attach(2, geom.V(6, 0, 6), h)
		ch := &recorder{}
		m.Attach(3, geom.V(3, 5, 6), ch)
		return s, m, a, ch
	}
	rts := &frame.Frame{Type: frame.RTS, Src: 1, Dst: 2, DataBytes: 512, Seq: 5}

	cs, ctl, ca, _ := build(&barrierer{})
	ca.Transmit(rts)
	cs.RunAll()

	bh := &barrierer{}
	s, m, a, ch := build(bh)
	bh.s = s
	a.Transmit(rts)
	s.RunAll()
	if len(bh.received) != 1 || len(ch.received) != 0 {
		t.Fatalf("parked with %d/%d receptions, want 1/0: the barrier did not fall mid-drain",
			len(bh.received), len(ch.received))
	}
	s.RunAll()
	if len(ch.received) != 1 {
		t.Fatalf("later receiver got %d frames after the barrier, want 1", len(ch.received))
	}
	if got := ch.received[0]; got.Type != frame.RTS || got.Src != 1 || got.Seq != 5 {
		t.Fatalf("later receiver got %v seq=%d, want the RTS from N1", &got, got.Seq)
	}
	if got, want := string(statecheck.Dump(m)), string(statecheck.Dump(ctl)); got != want {
		t.Fatalf("medium state after the barrier:\n%s\nuninterrupted:\n%s", got, want)
	}
}

package phy

import (
	"strings"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
)

// The medium owns every frame in flight by value: Transmit copies the
// caller's frame, and the pointer a handler receives is the medium's copy,
// valid for the call only. These tests pin that contract; the pooled
// records that make it allocation-free are pinned by
// TestSteadyStateAllocationFree.

// TestTransmitCopiesFrame: the caller may reuse its frame as soon as
// Transmit returns; receivers still get what was radiated.
func TestTransmitCopiesFrame(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &recorder{}
	m.Attach(2, geom.V(6, 0, 6), bh)
	payload := []byte("first")
	f := &frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 512, Seq: 7, Payload: payload}
	a.Transmit(f)
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

// adopter tries to fork the medium from inside a receive notification,
// while a later receiver's notification of the same frame is still pending.
type adopter struct {
	recorder
	fork, warm *Medium
	err        error
}

func (h *adopter) RadioReceive(f *frame.Frame) {
	h.recorder.RadioReceive(f)
	h.err = h.fork.AdoptFrom(h.warm)
}

// TestAdoptFailsClosedWhileDraining: the fork path re-arms completion
// events only, so a warm medium holding an ended transmission with
// notifications still pending cannot be adopted.
func TestAdoptFailsClosedWhileDraining(t *testing.T) {
	build := func(h Handler) (*sim.Simulator, *Medium, *Radio) {
		s, m := newTestMedium(t)
		a := m.Attach(1, geom.V(0, 0, 6), nil)
		m.Attach(2, geom.V(6, 0, 6), h)
		m.Attach(3, geom.V(3, 5, 6), &recorder{})
		return s, m, a
	}
	bh := &adopter{}
	s, warm, a := build(bh)
	_, fork, _ := build(nil)
	bh.fork, bh.warm = fork, warm
	a.Transmit(&frame.Frame{Type: frame.RTS, Src: 1, Dst: 2, DataBytes: 512})
	s.RunAll()
	if bh.err == nil || !strings.Contains(bh.err.Error(), "notifications pending") {
		t.Fatalf("AdoptFrom while draining = %v, want a notifications-pending error", bh.err)
	}
	if err := fork.AdoptFrom(warm); err != nil {
		t.Fatalf("AdoptFrom after draining = %v, want nil", err)
	}
}

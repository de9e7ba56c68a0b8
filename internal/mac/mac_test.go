package mac

import (
	"testing"
	"unsafe"

	"macaw/internal/frame"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// TestPacketLayout pins the packet record's 48 bytes on 64-bit platforms:
// a field order that reintroduces padding moves it into the 64-byte size
// class.
func TestPacketLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Packet{}); got != 48 {
		t.Fatalf("mac.Packet is %d bytes, want 48", got)
	}
}

func TestConfigTimes(t *testing.T) {
	c := DefaultConfig()
	if c.Slot() != 937500*sim.Nanosecond {
		t.Fatalf("slot = %v, want 937.5us", c.Slot())
	}
	if c.CtrlTime() != c.Slot() {
		t.Fatal("ctrl time != slot")
	}
	if c.DataTime(512) != 16*sim.Millisecond {
		t.Fatalf("data time = %v, want 16ms", c.DataTime(512))
	}
	if c.MaxRetries <= 0 {
		t.Fatal("MaxRetries must be positive")
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	if q.Peek() != nil || q.Pop() != nil || q.Len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	a, b := &Packet{Dst: 1}, &Packet{Dst: 2}
	q.Push(a)
	q.Push(b)
	if q.Len() != 2 || q.Peek() != a {
		t.Fatal("push/peek broken")
	}
	if q.Pop() != a || q.Pop() != b || q.Pop() != nil {
		t.Fatal("pop order broken")
	}
}

func TestStreamQueues(t *testing.T) {
	s := NewStreamQueues()
	s.Push(&Packet{Dst: 5})
	s.Push(&Packet{Dst: 3})
	s.Push(&Packet{Dst: 5})
	if s.TotalLen() != 3 {
		t.Fatalf("TotalLen = %d", s.TotalLen())
	}
	if got := s.Destinations(); len(got) != 2 || got[0] != 5 || got[1] != 3 {
		t.Fatalf("Destinations = %v (want first-seen order)", got)
	}
	if s.Queue(5).Len() != 2 || s.Queue(3).Len() != 1 {
		t.Fatal("per-stream lengths wrong")
	}
	if s.Queue(9) != nil {
		t.Fatal("unknown destination returned a queue")
	}
	s.Queue(3).Pop()
	if got := s.NonEmpty(nil); len(got) != 1 || got[0] != 5 {
		t.Fatalf("NonEmpty = %v", got)
	}
	// An emptied stream remains a known destination.
	if got := s.Destinations(); len(got) != 2 {
		t.Fatalf("Destinations after drain = %v", got)
	}
}

func TestPacketSeq(t *testing.T) {
	p := &Packet{Dst: 1}
	p.SetSeq(42)
	if p.Seq() != 42 {
		t.Fatal("seq round-trip failed")
	}
}

func TestCallbacksNilSafe(t *testing.T) {
	var c Callbacks
	c.NotifyDeliver(1, nil)
	c.NotifySent(nil)
	c.NotifyDropped(nil, DropRetries)

	var delivered frame.NodeID
	var sentP, droppedP *Packet
	c = Callbacks{
		Deliver: func(src frame.NodeID, _ []byte) { delivered = src },
		Sent:    func(p *Packet) { sentP = p },
		Dropped: func(p *Packet, _ DropReason) { droppedP = p },
	}
	pkt := &Packet{Dst: 2}
	c.NotifyDeliver(7, nil)
	c.NotifySent(pkt)
	c.NotifyDropped(pkt, DropRetries)
	if delivered != 7 || sentP != pkt || droppedP != pkt {
		t.Fatal("callbacks not invoked")
	}
}

// TestQueueRingOrder drives the block queue across block boundaries in both
// directions: Push opening a block at the tail, Pop retiring the head block
// to the spare, and PushFront opening a block before the head. It checks
// FIFO order against a plain slice model after every operation.
func TestQueueRingOrder(t *testing.T) {
	var q Queue
	var model []*Packet
	check := func(step int) {
		t.Helper()
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
		for i, p := range model {
			if q.at(i) != p {
				t.Fatalf("step %d: element %d out of order", step, i)
			}
		}
	}
	for step := 0; step < 200; step++ {
		p := &Packet{Dst: frame.NodeID(step)}
		switch step % 5 {
		case 0, 1, 2:
			q.Push(p)
			model = append(model, p)
		case 3:
			q.PushFront(p)
			model = append([]*Packet{p}, model...)
		case 4:
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop returned the wrong packet", step)
			}
			model = model[1:]
		}
		check(step)
	}
	for len(model) > 0 {
		if q.Pop() != model[0] {
			t.Fatal("drain out of order")
		}
		model = model[1:]
	}
	if q.Pop() != nil || q.Peek() != nil || q.Len() != 0 {
		t.Fatal("drained queue not empty")
	}
}

// TestQueueAllocationFree pins the spare block's point: a queue whose
// length stays put while its head walks across block boundaries reuses the
// block it retires, so steady-state Push, Pop and PushFront allocate
// nothing.
func TestQueueAllocationFree(t *testing.T) {
	var q Queue
	a, b := &Packet{Dst: 1}, &Packet{Dst: 2}
	q.Push(a)
	if n := statecheck.Mallocs(100, func() {
		// A block's worth in and out: every run moves the tail, and the
		// head, across exactly one block boundary.
		for range queueBlock {
			q.Push(b)
		}
		p := q.Pop()
		q.PushFront(p)
		for range queueBlock {
			q.Pop()
		}
	}); n != 0 {
		t.Fatalf("steady-state queue operations allocated %d times, want 0", n)
	}
	s := NewStreamQueues()
	s.Push(&Packet{Dst: 5})
	s.Push(&Packet{Dst: 3})
	scratch := make([]frame.NodeID, 0, 2)
	if n := statecheck.Mallocs(100, func() { scratch = s.NonEmpty(scratch[:0]) }); n != 0 {
		t.Fatalf("NonEmpty into scratch allocated %d times, want 0", n)
	}
}

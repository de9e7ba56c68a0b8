package mac

import (
	"testing"
	"unsafe"

	"macaw/internal/frame"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// TestPacketLayout pins the packet record's 32 bytes on 64-bit platforms,
// so that a core slab block of 32 packets fills the 1024-byte malloc size
// class: a field order that reintroduces padding, or a Size wider than
// frame.Frame.DataBytes, grows the record and moves the block into the
// 1152-byte class or past it. It pins the queue block's 256 bytes, its own
// size class, too.
func TestPacketLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Packet{}); got != 32 {
		t.Fatalf("mac.Packet is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(block{}); got != 256 {
		t.Fatalf("queue block is %d bytes, want 256", got)
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
	s := NewStreamQueues(nil)
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

// TestSparesStreamQueuesReset: stream queues Reset after use, over a
// store whose blocks the old queues still point into, start empty and
// take their blocks from the new store. They rebuild the queue records
// they kept, in order, so a new owner's destinations cost no record until
// it has more than the old owner had, and each rebuilt queue is a fresh
// one.
func TestSparesStreamQueuesReset(t *testing.T) {
	var old, store Blocks
	s := NewStreamQueues(&old)
	for i := 0; i < 40; i++ {
		s.Push(&Packet{Dst: frame.NodeID(1 + i%3)})
	}
	kept := append([]*Queue(nil), s.qs...)
	old.Reset()
	s.Reset(&store)
	if s.TotalLen() != 0 || len(s.Destinations()) != 0 || len(s.NonEmpty(nil)) != 0 {
		t.Fatalf("Reset left %d packets toward %v", s.TotalLen(), s.Destinations())
	}
	for _, d := range []frame.NodeID{7, 4, 9, 4} {
		s.Push(&Packet{Dst: d})
	}
	if got := s.Destinations(); len(got) != 3 || got[0] != 7 || got[1] != 4 || got[2] != 9 {
		t.Fatalf("Destinations after Reset = %v, want [7 4 9]", got)
	}
	for i, q := range s.qs {
		if q != kept[i] {
			t.Errorf("queue %d is a new record", i)
		}
		if q.src != &store {
			t.Errorf("queue %d takes its blocks from the old store", i)
		}
	}
	if s.Queue(7).Len() != 1 || s.Queue(4).Len() != 2 || s.Queue(9).Len() != 1 {
		t.Fatal("per-stream lengths wrong after Reset")
	}
	if p := s.Queue(4).Pop(); p == nil || p.Dst != 4 || s.TotalLen() != 3 {
		t.Fatal("a rebuilt queue kept what it held before Reset")
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
// directions: Push opening a block at the tail, Pop giving the spent head
// block back to the store, and PushFront opening a block before the head.
// It checks FIFO order against a plain slice model after every operation.
func TestQueueRingOrder(t *testing.T) {
	q := NewQueue(new(Blocks))
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

// TestQueueAllocationFree pins the store's free list's point: a queue
// whose length stays put while its head walks across block boundaries
// takes back the block it gave the store, so steady-state Push, Pop and
// PushFront allocate nothing.
func TestQueueAllocationFree(t *testing.T) {
	q := NewQueue(new(Blocks))
	a, b := &Packet{Dst: 1}, &Packet{Dst: 2}
	q.Push(a)
	if n := statecheck.Mallocs(t, 100, func() {
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
	s := NewStreamQueues(nil)
	s.Push(&Packet{Dst: 5})
	s.Push(&Packet{Dst: 3})
	scratch := make([]frame.NodeID, 0, 2)
	if n := statecheck.Mallocs(t, 100, func() { scratch = s.NonEmpty(scratch[:0]) }); n != 0 {
		t.Fatalf("NonEmpty into scratch allocated %d times, want 0", n)
	}
}

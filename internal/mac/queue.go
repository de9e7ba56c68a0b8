package mac

import "macaw/internal/frame"

// Queue is a FIFO packet queue. It is a head-indexed ring over a
// power-of-two buffer, so Pop and PushFront reuse its storage: once the
// buffer has grown to a queue's high-water mark, steady-state traffic
// allocates nothing here.
type Queue struct {
	buf  []*Packet // len(buf) is zero or a power of two
	head int       // index of the head packet in buf
	n    int       // number of queued packets
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.n }

// at returns the i-th packet from the head (0 ≤ i < Len).
func (q *Queue) at(i int) *Packet { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// grow doubles the buffer (minimum 4), unrolling the ring to start at 0.
func (q *Queue) grow() {
	nb := make([]*Packet, max(4, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = q.at(i)
	}
	q.buf, q.head = nb, 0
}

// Push appends p.
func (q *Queue) Push(p *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

// PushFront reinstates p at the head of the queue (used when a tentatively
// completed packet turns out to need retransmission).
func (q *Queue) PushFront(p *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = p
	q.n++
}

// Peek returns the head without removing it, or nil when empty.
func (q *Queue) Peek() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

// Pop removes and returns the head, or nil when empty.
func (q *Queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return p
}

// StreamQueues keys packets by destination, implementing §3.2's
// one-queue-per-stream design: "a separate queue for each stream, and ...
// each queue has its own backoff counter and retry counter". Destinations
// are tracked in first-seen order so iteration is deterministic.
type StreamQueues struct {
	order []frame.NodeID
	qs    map[frame.NodeID]*Queue
}

// NewStreamQueues returns an empty set of per-destination queues.
func NewStreamQueues() *StreamQueues {
	return &StreamQueues{qs: make(map[frame.NodeID]*Queue)}
}

// Push enqueues p on its destination's queue.
func (s *StreamQueues) Push(p *Packet) {
	q := s.qs[p.Dst]
	if q == nil {
		q = &Queue{}
		s.qs[p.Dst] = q
		s.order = append(s.order, p.Dst)
	}
	q.Push(p)
}

// Queue returns the queue for dst, or nil if none exists.
func (s *StreamQueues) Queue(dst frame.NodeID) *Queue { return s.qs[dst] }

// Destinations returns the known destinations in first-seen order,
// including those whose queues are currently empty.
func (s *StreamQueues) Destinations() []frame.NodeID { return s.order }

// NonEmpty appends the destinations with at least one queued packet to dst,
// in first-seen order, and returns the extended slice. Callers pass a
// reused scratch slice (dst[:0]) so contention rounds do not allocate.
func (s *StreamQueues) NonEmpty(dst []frame.NodeID) []frame.NodeID {
	for _, d := range s.order {
		if s.qs[d].Len() > 0 {
			dst = append(dst, d)
		}
	}
	return dst
}

// TotalLen returns the total number of queued packets across streams.
func (s *StreamQueues) TotalLen() int {
	n := 0
	for _, q := range s.qs {
		n += q.Len()
	}
	return n
}

package mac

import "macaw/internal/frame"

// queueBlock is the number of packet slots in one block of a Queue: 256
// bytes, a size class of its own.
const queueBlock = 32

// block is one fixed run of queue slots.
type block [queueBlock]*Packet

// Queue is a FIFO packet queue. It keeps its packets in fixed blocks of
// queueBlock slots, so a backlog costs one slot per packet, rounded up to
// whole blocks, where a doubling buffer pays up to twice its peak and
// copies it on every growth. A block emptied from the head is kept
// as a spare for the next block the queue needs, so traffic that crosses
// a block boundary back and forth allocates nothing here.
type Queue struct {
	blocks []*block // blocks[0] holds the head packet
	spare  *block   // an emptied block, reused before a new one
	head   int      // index of the head packet in blocks[0]
	n      int      // number of queued packets
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.n }

// at returns the i-th packet from the head (0 ≤ i < Len).
func (q *Queue) at(i int) *Packet {
	i += q.head
	return q.blocks[i/queueBlock][i%queueBlock]
}

// newBlock returns the spare block, or a fresh one.
func (q *Queue) newBlock() *block {
	if b := q.spare; b != nil {
		q.spare = nil
		return b
	}
	return new(block)
}

// Push appends p.
func (q *Queue) Push(p *Packet) {
	i := q.head + q.n
	if i == len(q.blocks)*queueBlock {
		q.blocks = append(q.blocks, q.newBlock())
	}
	q.blocks[i/queueBlock][i%queueBlock] = p
	q.n++
}

// PushFront reinstates p at the head of the queue (used when a tentatively
// completed packet turns out to need retransmission).
func (q *Queue) PushFront(p *Packet) {
	if q.head == 0 {
		q.blocks = append(q.blocks, nil)
		copy(q.blocks[1:], q.blocks)
		q.blocks[0] = q.newBlock()
		q.head = queueBlock
	}
	q.head--
	q.blocks[0][q.head] = p
	q.n++
}

// Peek returns the head without removing it, or nil when empty.
func (q *Queue) Peek() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.blocks[0][q.head]
}

// Pop removes and returns the head, or nil when empty.
func (q *Queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	b := q.blocks[0]
	p := b[q.head]
	b[q.head] = nil
	q.head++
	q.n--
	if q.head == queueBlock {
		// The head block is spent: keep it as the spare.
		copy(q.blocks, q.blocks[1:])
		q.blocks[len(q.blocks)-1] = nil
		q.blocks = q.blocks[:len(q.blocks)-1]
		q.spare, q.head = b, 0
	} else if q.n == 0 {
		q.head = 0
	}
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

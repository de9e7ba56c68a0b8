package mac

import "macaw/internal/frame"

// queueBlock is the number of packet slots in one block of a Queue: with
// its next link, a block is 256 bytes, a size class of its own.
const queueBlock = 31

// block is one fixed run of queue slots, linked to the block after it.
type block struct {
	slots [queueBlock]*Packet
	next  *block
}

// chunkBlocks is the number of blocks in one chunk of a Blocks store: 8
// blocks fill the 2048-byte size class.
const chunkBlocks = 8

// Blocks is a store of queue blocks, shared by the queues of one network
// (DESIGN.md §8, "Recycled networks"). It cuts blocks from chunks of
// chunkBlocks and takes a queue's spent blocks back on a free list, so
// queues that shrink give their blocks to queues that grow, and a network
// holds blocks for its peak total backlog rather than for each queue's
// own. Reset takes every block back for a later network. The zero
// value is ready; a nil *Blocks allocates each block with new and drops
// the spent ones. A Blocks is not safe for concurrent use.
type Blocks struct {
	chunks [][]block // every chunk held, cut in order
	c, i   int       // the next block is cut from chunks[c][i]
	free   *block    // spent blocks, linked through next
}

// get returns a zeroed block. A block cut from a chunk again after Reset,
// or taken back from a queue, may hold what its earlier owner left
// in it, so every block is zeroed when it is taken.
func (s *Blocks) get() *block {
	if s == nil {
		return new(block)
	}
	b := s.free
	if b != nil {
		s.free = b.next
	} else {
		if s.c < len(s.chunks) && s.i == len(s.chunks[s.c]) {
			s.c, s.i = s.c+1, 0
		}
		if s.c == len(s.chunks) {
			s.chunks = append(s.chunks, make([]block, chunkBlocks))
		}
		b = &s.chunks[s.c][s.i]
		s.i++
	}
	*b = block{}
	return b
}

// put takes back a spent block.
func (s *Blocks) put(b *block) {
	if s != nil {
		b.next, s.free = s.free, b
	}
}

// Reset takes back every block s has cut: it keeps its chunks and cuts its
// next blocks from the first again. No queue over s may be used after: it
// is for a store whose network has ended.
func (s *Blocks) Reset() {
	*s = Blocks{chunks: s.chunks}
}

// Queue is a FIFO packet queue: a linked list of blocks of queueBlock
// slots, taken from a Blocks store. A backlog costs one slot per packet,
// rounded up to whole blocks, where a doubling buffer pays up to twice its
// peak and copies it on every growth; and a block spent at the head goes
// back to the store, where any queue over it can take it again. An empty
// queue keeps its last block. The zero value is an empty queue over a nil
// store; NewQueue gives one a store.
type Queue struct {
	src        *Blocks
	head, tail *block // head holds the head packet, tail the last one
	lo, hi     int    // the head packet is head.slots[lo]; tail.slots[hi] is free
	n          int    // number of queued packets
}

// NewQueue returns an empty queue that takes its blocks from src.
func NewQueue(src *Blocks) Queue { return Queue{src: src} }

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.n }

// at returns the i-th packet from the head (0 ≤ i < Len).
func (q *Queue) at(i int) *Packet {
	i += q.lo
	b := q.head
	for ; i >= queueBlock; i -= queueBlock {
		b = b.next
	}
	return b.slots[i]
}

// Push appends p.
func (q *Queue) Push(p *Packet) {
	if q.tail == nil {
		q.head = q.src.get()
		q.tail = q.head
	} else if q.hi == queueBlock {
		b := q.src.get()
		q.tail.next, q.tail, q.hi = b, b, 0
	}
	q.tail.slots[q.hi] = p
	q.hi++
	q.n++
}

// PushFront reinstates p at the head of the queue (used when a tentatively
// completed packet turns out to need retransmission).
func (q *Queue) PushFront(p *Packet) {
	if q.n == 0 {
		q.Push(p)
		return
	}
	if q.lo == 0 {
		b := q.src.get()
		b.next, q.head, q.lo = q.head, b, queueBlock
	}
	q.lo--
	q.head.slots[q.lo] = p
	q.n++
}

// Peek returns the head without removing it, or nil when empty.
func (q *Queue) Peek() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.head.slots[q.lo]
}

// Pop removes and returns the head, or nil when empty.
func (q *Queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	b := q.head
	p := b.slots[q.lo]
	b.slots[q.lo] = nil
	q.lo++
	q.n--
	if q.n == 0 {
		// Empty: b is the only block left; start it over from its first
		// slot.
		q.lo, q.hi = 0, 0
	} else if q.lo == queueBlock {
		// The head block is spent: give it back.
		q.head, q.lo = b.next, 0
		q.src.put(b)
	}
	return p
}

// release gives the last block of q, which must be empty, back to its
// store.
func (q *Queue) release() {
	if q.head != nil {
		q.src.put(q.head)
		q.head, q.tail = nil, nil
	}
}

// StreamQueues keys packets by destination, implementing §3.2's
// one-queue-per-stream design: "a separate queue for each stream, and ...
// each queue has its own backoff counter and retry counter". Destinations
// are kept in first-seen order, which is the order contention draws for
// them in, with each queue in the parallel slot of qs; a station has few
// streams, so a lookup scans.
type StreamQueues struct {
	src   *Blocks
	order []frame.NodeID
	qs    []*Queue
}

// NewStreamQueues returns an empty set of per-destination queues that
// take their blocks from src.
func NewStreamQueues(src *Blocks) *StreamQueues {
	return &StreamQueues{src: src}
}

// Reset empties s for a new owner whose queues take their blocks from
// src. The blocks its queues held are not given back: they belong to the
// store of the network that ended. It keeps the capacity of its slices and
// the queue records past their length, which Push rewrites before use.
func (s *StreamQueues) Reset(src *Blocks) {
	*s = StreamQueues{src: src, order: s.order[:0], qs: s.qs[:0]}
}

// Push enqueues p on its destination's queue.
func (s *StreamQueues) Push(p *Packet) {
	q := s.Queue(p.Dst)
	if q == nil {
		if k := len(s.qs); k < cap(s.qs) && s.qs[:k+1][k] != nil {
			q = s.qs[:k+1][k]
		} else {
			q = new(Queue)
		}
		*q = Queue{src: s.src}
		s.order = append(s.order, p.Dst)
		s.qs = append(s.qs, q)
	}
	q.Push(p)
}

// Queue returns the queue for dst, or nil if none exists.
func (s *StreamQueues) Queue(dst frame.NodeID) *Queue {
	for i, d := range s.order {
		if d == dst {
			return s.qs[i]
		}
	}
	return nil
}

// Destinations returns the known destinations in first-seen order,
// including those whose queues are currently empty.
func (s *StreamQueues) Destinations() []frame.NodeID { return s.order }

// NonEmpty appends the destinations with at least one queued packet to dst,
// in first-seen order, and returns the extended slice. Callers pass a
// reused scratch slice (dst[:0]) so contention rounds do not allocate.
func (s *StreamQueues) NonEmpty(dst []frame.NodeID) []frame.NodeID {
	for i, q := range s.qs {
		if q.Len() > 0 {
			dst = append(dst, s.order[i])
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

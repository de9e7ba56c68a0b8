package mac

import (
	"fmt"
	"sort"

	"macaw/internal/frame"
)

// This file provides the queue dumps shared by every protocol engine's
// snapshot state inventory (DESIGN.md §14). Packet identity is (dst, size,
// seq, enqueue time, payload length) — payload bytes are transport segments
// already pinned by the transport dump, so their length suffices here.

// AppendState appends the queue's packets in FIFO order.
func (q *Queue) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "queue n=%d", q.n)
	for i := 0; i < q.n; i++ {
		p := q.at(i)
		b = fmt.Appendf(b, " {dst=%d size=%d seq=%d enq=%d pay=%d}", p.Dst, p.Size, p.seq, p.Enqueued, len(p.Payload))
	}
	return append(b, '\n')
}

// AppendState appends every per-destination queue in first-seen order —
// the same deterministic order the protocols themselves iterate in.
func (s *StreamQueues) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "streamqueues dests=%d\n", len(s.order))
	for _, d := range s.order {
		b = fmt.Appendf(b, "  dst=%d ", d)
		b = s.qs[d].AppendState(b)
	}
	return b
}

// AppendPacketRef appends a named reference to an in-flight packet (or nil)
// using the same identity fields as the queue dump — the engines' sending /
// txHead continuation fields are inventory: a run that lost track of the
// packet its pending air-time timer completes must diverge visibly here.
func AppendPacketRef(b []byte, name string, p *Packet) []byte {
	if p == nil {
		return fmt.Appendf(b, " %s=nil", name)
	}
	return fmt.Appendf(b, " %s={dst=%d size=%d seq=%d enq=%d pay=%d}", name, p.Dst, p.Size, p.seq, p.Enqueued, len(p.Payload))
}

// AppendState appends the MAC counters (part of each engine's dump).
func (st Stats) AppendState(b []byte) []byte {
	return fmt.Appendf(b, "macstats data=%d rx=%d rts=%d retries=%d drops=%d cts=%d ds=%d ack=%d rrts=%d\n",
		st.DataSent, st.DataReceived, st.RTSSent, st.Retries, st.Drops,
		st.CTSSent, st.DSSent, st.ACKSent, st.RRTSSent)
}

// AppendSeqMap appends a per-station sequence map (an engine's dedup
// bookkeeping) in ascending station order.
func AppendSeqMap(b []byte, name string, m map[frame.NodeID]uint32) []byte {
	keys := make([]frame.NodeID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = fmt.Appendf(b, "%s n=%d", name, len(keys))
	for _, k := range keys {
		b = fmt.Appendf(b, " %d=%d", k, m[k])
	}
	return append(b, '\n')
}

package macaw

import (
	"fmt"
	"sort"

	"macaw/internal/frame"
	"macaw/internal/mac"
)

// AppendState appends the engine's full FSM and bookkeeping state for the
// snapshot inventory (DESIGN.md §14). Per-destination maps are dumped in
// ascending destination order so the dump is canonical; the backoff policy
// appends its own table when it supports the hook.
func (m *MACAW) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "macaw st=%s defer=%d carrierClear=%d\n", m.st, m.deferUntil, m.carrierClearAt)
	b = fmt.Appendf(b, "macaw.exchange cur={dst=%d rrts=%t} curDst=%d expectSrc=%d rrtsFor=%d rrtsLen=%d hasRRTS=%t rrtsSeen=%d tx=%d wantAck=%t",
		m.cur.dst, m.cur.rrts, m.curDst, m.expectSrc, m.rrtsFor, m.rrtsLen, m.hasRRTS, m.rrtsSeen, m.tx, m.txWantAck)
	b = mac.AppendPacketRef(b, "txHead", m.txHead)
	b = append(b, '\n')
	if m.opt.PerStream {
		b = m.streams.AppendState(b)
	} else {
		b = m.fifo.AppendState(b)
	}
	b = appendIntMap(b, "attempts", m.attempts)
	b = mac.AppendSeqMap(b, "macaw.lastAcked", m.lastAcked)
	b = appendBoolMap(b, "everAcked", m.everAcked)
	b = mac.AppendSeqMap(b, "macaw.seenESN", m.seenESN)
	b = appendPendingMap(b, m.pending)
	b = appendIntMap(b, "pendingRetries", m.pendingRetries)
	if a, ok := m.pol.(interface{ AppendState([]byte) []byte }); ok {
		b = a.AppendState(b)
	}
	return m.Base.AppendState(b)
}

func sortedIDs[V any](m map[frame.NodeID]V) []frame.NodeID {
	ids := make([]frame.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func appendIntMap(b []byte, name string, m map[frame.NodeID]int) []byte {
	b = fmt.Appendf(b, "macaw.%s n=%d", name, len(m))
	for _, id := range sortedIDs(m) {
		b = fmt.Appendf(b, " %d=%d", id, m[id])
	}
	return append(b, '\n')
}

func appendBoolMap(b []byte, name string, m map[frame.NodeID]bool) []byte {
	b = fmt.Appendf(b, "macaw.%s n=%d", name, len(m))
	for _, id := range sortedIDs(m) {
		b = fmt.Appendf(b, " %d=%t", id, m[id])
	}
	return append(b, '\n')
}

func appendPendingMap(b []byte, m map[frame.NodeID]*mac.Packet) []byte {
	b = fmt.Appendf(b, "macaw.pending n=%d", len(m))
	for _, id := range sortedIDs(m) {
		p := m[id]
		b = fmt.Appendf(b, " %d={size=%d seq=%d enq=%d}", id, p.Size, p.Seq(), p.Enqueued)
	}
	return append(b, '\n')
}

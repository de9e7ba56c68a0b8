package tournament

import (
	"fmt"

	"macaw/internal/mac"
)

// AppendState appends the engine's full FSM state for the snapshot
// inventory (DESIGN.md §14). Field order follows the repository convention:
// FSM scalars, then the in-flight packet reference, then maps (sorted), the
// queue, and the chassis section.
func (t *Tournament) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "tournament st=%s draw=%d round=%d roundStart=%d sentSig=%t lastBusy=%d retries=%d tk=%d sigs=%d",
		t.st, t.draw, t.round, t.roundStart, t.sentSig, t.lastBusy, t.retries, t.tk, t.sigs)
	b = mac.AppendPacketRef(b, "sending", t.sending)
	b = append(b, '\n')
	b = mac.AppendSeqMap(b, "tournament.lastSeq", t.lastSeq)
	b = t.q.AppendState(b)
	return t.Base.AppendState(b)
}

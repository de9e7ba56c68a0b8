package dcf

import (
	"fmt"

	"macaw/internal/mac"
)

// AppendState appends the engine's full FSM state for the snapshot
// inventory (DESIGN.md §14). Field order follows the repository convention:
// FSM scalars, then the in-flight packet reference, then maps (sorted), the
// queue, and the chassis section.
func (d *DCF) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "dcf st=%s cw=%d bo=%d src=%d lrc=%d nav=%d peer=%d peerBytes=%d peerSeq=%d tk=%d",
		d.st, d.cw, d.bo, d.src, d.lrc, d.nav, d.peer, d.peerBytes, d.peerSeq, d.tk)
	b = mac.AppendPacketRef(b, "sending", d.sending)
	b = append(b, '\n')
	b = mac.AppendSeqMap(b, "dcf.lastSeq", d.lastSeq)
	b = d.q.AppendState(b)
	return d.Base.AppendState(b)
}

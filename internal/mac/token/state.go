package token

import (
	"fmt"

	"macaw/internal/mac"
)

// AppendState appends the engine's full FSM state for the snapshot
// inventory (DESIGN.md §14). The watchdog carries its Cancelled flag like
// the chassis state timer does.
func (t *Token) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "token st=%s ringPos=%d passTo=%d sentThis=%d skipNext=%d watchdog=%d watchdogCancelled=%t regen=%d skips=%d",
		t.st, t.ringPos, t.passTo, t.sentThis, t.skipNext, t.watchdog.When(), t.watchdog.Cancelled(), t.Regenerations, t.Skips)
	b = mac.AppendPacketRef(b, "sending", t.sending)
	b = append(b, '\n')
	b = t.q.AppendState(b)
	return t.Base.AppendState(b)
}

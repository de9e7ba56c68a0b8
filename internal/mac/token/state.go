package token

import (
	"fmt"

	"macaw/internal/mac"
)

// AppendState appends the engine's full FSM state for the snapshot
// inventory (DESIGN.md §14). The field ordering follows the SPI convention
// the other engines use: timer fields carry their Cancelled flag and
// seq/halted close the FSM line.
func (t *Token) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "token st=%s ringPos=%d passTo=%d sentThis=%d skipNext=%d timer=%d timerCancelled=%t watchdog=%d watchdogCancelled=%t seq=%d halted=%t regen=%d skips=%d",
		t.st, t.ringPos, t.passTo, t.sentThis, t.skipNext, t.timer.When(), t.timer.Cancelled(), t.watchdog.When(), t.watchdog.Cancelled(), t.seq, t.halted, t.Regenerations, t.Skips)
	b = mac.AppendPacketRef(b, "sending", t.sending)
	b = append(b, '\n')
	b = t.q.AppendState(b)
	b = t.stats.AppendState(b)
	return b
}

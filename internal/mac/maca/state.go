package maca

import (
	"fmt"

	"macaw/internal/mac"
)

// AppendState appends the engine's full FSM state for the snapshot
// inventory (DESIGN.md §14).
func (m *MACA) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "maca st=%s retries=%d defer=%d curDst=%d expectFrom=%d",
		m.st, m.retries, m.deferUntil, m.curDst, m.expectFrom)
	b = mac.AppendPacketRef(b, "sending", m.sending)
	b = append(b, '\n')
	b = m.q.AppendState(b)
	if a, ok := m.pol.(interface{ AppendState([]byte) []byte }); ok {
		b = a.AppendState(b)
	}
	return m.Base.AppendState(b)
}

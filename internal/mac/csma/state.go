package csma

import (
	"fmt"

	"macaw/internal/mac"
)

// AppendState appends the engine's full FSM state for the snapshot
// inventory (DESIGN.md §14).
func (c *CSMA) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "csma st=%s retries=%d", c.st, c.retries)
	b = mac.AppendPacketRef(b, "sending", c.sending)
	b = append(b, '\n')
	b = c.q.AppendState(b)
	if a, ok := c.pol.(interface{ AppendState([]byte) []byte }); ok {
		b = a.AppendState(b)
	}
	return c.Base.AppendState(b)
}

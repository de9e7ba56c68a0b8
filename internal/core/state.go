package core

import (
	"fmt"

	"macaw/internal/sim"
)

// This file is the network's contribution to the state inventory (DESIGN.md
// §14): a canonical, deterministic dump of every piece of mutable state the
// network owns, delegating to each layer's own AppendState. Byte-equality of
// two dumps taken at the same virtual time is the passivity and replay
// tests' divergence check, so every field that can affect future behavior —
// and every field that can reveal a diverged past, such as counters —
// belongs here.

// stateAppender is the cross-layer state-dump hook. It is an anonymous
// structural interface rather than a named one in a shared package so that
// layers stay decoupled: only []byte crosses package boundaries.
type stateAppender interface{ AppendState(b []byte) []byte }

// AppendState appends the canonical dump of the entire simulation state:
// engine (clock, heap, RNG cursors), medium, every station (radio + MAC FSM
// + backoff tables), and every stream (generator, transport, measurement
// window). Iteration follows creation order, which is deterministic.
func (n *Network) AppendState(b []byte) []byte {
	b = n.Sim.AppendState(b)
	b = n.Medium.AppendState(b)
	for _, st := range n.stations {
		b = st.appendState(b)
	}
	for _, s := range n.streams {
		b = s.appendState(b)
	}
	return b
}

// appendState dumps one station: identity, fault counters, radio, and the
// live MAC instance's FSM (AppendState is part of the MAC SPI, so every
// engine contributes a full inventory).
func (st *Station) appendState(b []byte) []byte {
	b = fmt.Appendf(b, "station id=%d name=%s dropped=%d crashes=%d restarts=%d\n",
		st.id, st.name, st.dropped, st.crashes, st.restarts)
	b = st.radio.AppendState(b)
	return st.mac.AppendState(b)
}

// appendState dumps one stream: measurement window, pending offers in seq
// order, the in-window delays in arrival order (EachDelay's seq order,
// which record holds equal to it), generator, and transport agents.
func (s *Stream) appendState(b []byte) []byte {
	b = fmt.Appendf(b, "stream name=%s kind=%s rate=%g startAt=%d offered=%d\n",
		s.Name, s.Kind, s.Rate, s.startAt, s.offered)
	if s.counter != nil {
		b = s.counter.AppendState(b)
	}
	b = fmt.Appendf(b, "offeredAt n=%d", s.pending)
	for i, at := range s.offeredAt {
		if at >= 0 {
			b = fmt.Appendf(b, " %d@%d", i+1, at)
		}
	}
	b = append(b, '\n')
	b = fmt.Appendf(b, "delays n=%d", s.NumDelays())
	s.EachDelay(func(d sim.Duration) { b = fmt.Appendf(b, " %d", d) })
	b = append(b, '\n')
	if a, ok := s.gen.(stateAppender); ok {
		b = a.AppendState(b)
	}
	if s.udpSender != nil {
		b = s.udpSender.AppendState(b)
	}
	if s.tcpSender != nil {
		b = s.tcpSender.AppendState(b)
	}
	if s.tcpRecv != nil {
		b = s.tcpRecv.AppendState(b)
	}
	return b
}

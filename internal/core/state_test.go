package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/traffic"
	"macaw/internal/transport"
)

// legacyOffers is the map-keyed offer bookkeeping Stream kept before its
// dense seq-indexed slice, replayed beside a live stream as the reference
// for what the state dump must say.
type legacyOffers struct {
	at     map[uint32]sim.Time
	delays []sim.Duration
}

func (l *legacyOffers) record(t, warmup sim.Time, seq uint32) {
	if at, ok := l.at[seq]; ok {
		if t >= warmup {
			l.delays = append(l.delays, t-at)
		}
		delete(l.at, seq)
	}
}

// lines renders the offeredAt and delays lines as the map-backed dump did:
// pending offers in ascending seq, then every recorded delay.
func (l *legacyOffers) lines() string {
	keys := make([]uint32, 0, len(l.at))
	for k := range l.at {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "offeredAt n=%d", len(keys))
	for _, k := range keys {
		fmt.Fprintf(&b, " %d@%d", k, l.at[k])
	}
	fmt.Fprintf(&b, "\ndelays n=%d", len(l.delays))
	for _, d := range l.delays {
		fmt.Fprintf(&b, " %d", d)
	}
	return b.String()
}

// shadow attaches a legacyOffers to s. It swaps in a phase-zero CBR that
// tees every offer into the model, and taps the stream's deliveries: the
// TCP receiver's in-order callback, or the UDP data segments arriving at
// the destination station.
func shadow(n *Network, s *Stream) *legacyOffers {
	l := &legacyOffers{at: make(map[uint32]sim.Time)}
	next := s.udpSender.Offer
	if s.tcpSender != nil {
		next = s.tcpSender.Offer
	}
	s.gen = traffic.NewCBR(n.Sim, s.Rate, nil, func() {
		seq := next()
		l.at[seq] = n.Sim.Now()
		s.offer(seq)
	})
	deliver := func(seq uint32) { l.record(n.Sim.Now(), s.counter.Warmup(), seq) }
	if s.tcpRecv != nil {
		inner := s.tcpRecv.OnDeliver
		s.tcpRecv.OnDeliver = func(seq uint32) { inner(seq); deliver(seq) }
	} else {
		s.To.Handle(func(_ frame.NodeID, seg transport.Segment) {
			if seg.Proto == transport.ProtoUDP && seg.Stream == s.id && seg.Kind == transport.KindData {
				deliver(seg.Seq)
			}
		})
	}
	return l
}

// offerLines renders s's pending offers in seq order and its recorded
// delays in EachDelay's order, in the legacy text.
func offerLines(s *Stream) string {
	var b strings.Builder
	fmt.Fprintf(&b, "offeredAt n=%d", s.pending)
	for i, at := range s.offeredAt {
		if at >= 0 {
			fmt.Fprintf(&b, " %d@%d", i+1, at)
		}
	}
	fmt.Fprintf(&b, "\ndelays n=%d", s.NumDelays())
	s.EachDelay(func(d sim.Duration) { fmt.Fprintf(&b, " %d", d) })
	return b.String()
}

// checkParity steps n from from to to in half-second slices, comparing
// every shadowed stream's offer bookkeeping with the legacy rendering at
// each barrier.
func checkParity(t *testing.T, n *Network, from, to sim.Time, shadows map[*Stream]*legacyOffers) {
	t.Helper()
	for at := from; at <= to; at += sim.Second / 2 {
		n.RunTo(at)
		for s, l := range shadows {
			if got, want := offerLines(s), l.lines(); got != want {
				t.Fatalf("%s at %v: dump\n  %.200s\nlegacy\n  %.200s", s.Name, at, got, want)
			}
		}
	}
}

// TestStreamStateMatchesLegacyRendering pins the slice-backed offer
// bookkeeping to the exact text the map-backed one rendered, on a
// saturated UDP stream that loses packets, on a TCP stream, and on a sweep
// cell retuned at its barrier.
func TestStreamStateMatchesLegacyRendering(t *testing.T) {
	const total, warmup = 6 * sim.Second, 2 * sim.Second

	t.Run("udp-saturated-drops", func(t *testing.T) {
		// Hidden terminals under CSMA: collisions at B exhaust the retry
		// limit, so offers stay pending for good while the queues grow.
		n := NewNetwork(4)
		n.Cfg.MaxRetries = 2
		f := CSMAFactory(csma.Options{ACK: true})
		a := n.AddStation("A", geom.V(0, 0, 6), f)
		b := n.AddStation("B", geom.V(8, 0, 6), f)
		c := n.AddStation("C", geom.V(16, 0, 6), f)
		ab, cb := n.AddStream(a, b, UDP, 64), n.AddStream(c, b, UDP, 64)
		shadows := map[*Stream]*legacyOffers{ab: shadow(n, ab), cb: shadow(n, cb)}
		n.Start(total, warmup)
		checkParity(t, n, 0, n.End(), shadows)
		if a.Dropped()+c.Dropped() == 0 {
			t.Fatal("no MAC drops: the scenario does not exercise lost offers")
		}
	})

	t.Run("tcp", func(t *testing.T) {
		n := NewNetwork(2)
		p := n.AddStation("P1", geom.V(-4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
		b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
		s := n.AddStream(p, b, TCP, 64)
		shadows := map[*Stream]*legacyOffers{s: shadow(n, s)}
		n.Start(total, warmup)
		checkParity(t, n, 0, n.End(), shadows)
	})

	t.Run("fork", func(t *testing.T) {
		// A sweep cell: parked at a barrier, its load raised and its retry
		// limit cut, it keeps rendering the legacy text as it runs on.
		n := buildDeltaNet(3, deltaFactories()["MACAW"])
		shadows := make(map[*Stream]*legacyOffers)
		for _, s := range n.Streams() {
			shadows[s] = shadow(n, s)
		}
		n.Start(total, warmup)
		barrier := sim.Time(total / 2)
		dropped := func() (d int) {
			for _, st := range n.stations {
				d += st.Dropped()
			}
			return d
		}
		checkParity(t, n, 0, barrier, shadows)
		before := dropped()
		for _, d := range []struct {
			kind  string
			value float64
		}{{"load.rate", 96}, {"retry.limit", 1}} {
			if err := n.ApplyDelta(d.kind, d.value); err != nil {
				t.Fatalf("ApplyDelta(%s, %g): %v", d.kind, d.value, err)
			}
		}
		checkParity(t, n, barrier+sim.Second/2, n.End(), shadows)
		if dropped() == before {
			t.Fatal("no MAC drops after the retune: the cell does not exercise lost offers")
		}
	})
}

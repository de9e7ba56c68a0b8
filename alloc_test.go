package macaw_test

import (
	"runtime"
	"testing"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// maxMallocsPerEvent pins the heap-allocation rate of a short Table 1 run
// (the Figure 2 cell, RTS-CTS-DATA under BEB+copy). Timers, traffic ticks,
// queues, offer bookkeeping and frames allocate nothing per event, and a
// station reuses completed packets, cutting payloads from an append-only
// arena (DESIGN.md §8); what remains is a packet per new backlog high and a
// payload chunk per 85 offers: measured at 0.047 mallocs per fired event on
// go1.24 linux/amd64, against 0.139 when every offer allocated its packet and
// payload, 0.245 when every transmission allocated its frame and 0.552 when
// every timer arm allocated a method-value closure. The pin leaves 15%
// headroom.
const maxMallocsPerEvent = 0.055

// TestMallocsPerFiredEvent fails when a change reintroduces a per-event
// allocation on the simulation's hot path.
func TestMallocsPerFiredEvent(t *testing.T) {
	l := topo.Figure2()
	f := core.MACAWFactoryWith(macaw.Options{Exchange: macaw.Basic},
		func() backoff.Policy { return backoff.NewSingle(backoff.NewBEB(), true) })
	n := core.NewNetwork(1)
	if err := l.Build(n, f); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.Run(20*sim.Second, 2*sim.Second)
	runtime.ReadMemStats(&after)
	events := n.Sim.Fired()
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d mallocs over %d fired events: %.3f per event", after.Mallocs-before.Mallocs, events, perEvent)
	if perEvent > maxMallocsPerEvent {
		t.Fatalf("%.3f mallocs per fired event, want at most %.2f", perEvent, maxMallocsPerEvent)
	}
}

package core

import (
	"errors"
	"testing"

	"macaw/internal/geom"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/dcf"
	"macaw/internal/mac/macaw"
	"macaw/internal/mac/token"
	"macaw/internal/mac/tournament"
	"macaw/internal/sim"
)

// buildDeltaNet builds the delta test topology: a base station and three
// pads in a single cell, two UDP streams up and one down, with the MAC f
// returns.
func buildDeltaNet(seed int64, f func() MACFactory) *Network {
	return deltaNetFrom(nil, seed, f)
}

// deltaNetFrom builds buildDeltaNet's cell through sp.
func deltaNetFrom(sp *Spares, seed int64, f func() MACFactory) *Network {
	n := sp.Network(seed)
	b := n.AddStation("B", geom.V(0, 0, 12), f())
	p1 := n.AddStation("P1", geom.V(4, 3, 6), f())
	p2 := n.AddStation("P2", geom.V(2, 3, 6), f())
	p3 := n.AddStation("P3", geom.V(0, 3, 6), f())
	n.AddStream(p1, b, UDP, 32)
	n.AddStream(p2, b, UDP, 32)
	n.AddStream(b, p3, UDP, 32)
	return n
}

// deltaFactories returns one MAC factory per engine, keyed by the name the
// subtests use.
func deltaFactories() map[string]func() MACFactory {
	return map[string]func() MACFactory{
		"MACA":  func() MACFactory { return MACAFactory() },
		"MACAW": func() MACFactory { return MACAWFactory(macaw.DefaultOptions()) },
		"CSMA":  func() MACFactory { return CSMAFactory(csma.Options{ACK: true}) },
		"token": func() MACFactory { return TokenFactory(token.Options{Ring: RingOf(4)}) },
		"DCF":   func() MACFactory { return DCFFactory(dcf.Options{}) },
		"TOURN": func() MACFactory { return TournamentFactory(tournament.Options{}) },
	}
}

// TestApplyDeltaFailsClosed pins the typed error taxonomy.
func TestApplyDeltaFailsClosed(t *testing.T) {
	n := buildDeltaNet(1, deltaFactories()["MACAW"])
	n.Start(2*sim.Second, sim.Second)
	for _, tc := range []struct {
		kind  string
		value float64
		want  error
	}{
		{"nonsense", 1, ErrDeltaUnknown},
		{"fault.crash", 1, ErrDeltaInvalidates},
		{"backoff.min", 0, ErrDeltaInvalid},
		{"backoff.max", 1.5, ErrDeltaInvalid},
		{"backoff.max", 1 << 15, ErrDeltaInvalid},
		{"mild.inc", 0.5, ErrDeltaInvalid},
		{"mild.dec", 0, ErrDeltaInvalid},
		{"load.rate", -1, ErrDeltaInvalid},
		{"retry.limit", -2, ErrDeltaInvalid},
		{"cw.min", 0, ErrDeltaInvalid},
		{"cw.max", 1.5, ErrDeltaInvalid},
		{"retry.short", 0, ErrDeltaInvalid},
		{"retry.long", 0.5, ErrDeltaInvalid},
		{"tournament.window", 1, ErrDeltaInvalid},
	} {
		if err := n.ApplyDelta(tc.kind, tc.value); !errors.Is(err, tc.want) {
			t.Errorf("ApplyDelta(%s, %g) = %v, want %v", tc.kind, tc.value, err, tc.want)
		}
	}
}

// TestApplyDeltaLeavesQueueAsIs: applying a delta does not touch the event
// queue. At a barrier where the queue holds cancelled events, a no-op delta
// leaves Pending and MaxQueued as they were, and the run ends with the queue
// counters of the delta-free run.
func TestApplyDeltaLeavesQueueAsIs(t *testing.T) {
	const total, warmup = 3 * sim.Second, 1 * sim.Second
	f := deltaFactories()["MACAW"]
	parked := func() *Network {
		n := buildDeltaNet(1, f)
		n.Start(total, warmup)
		n.RunTo(sim.Time(warmup))
		return n
	}
	twin := parked()
	before := twin.Sim.Pending()
	twin.Sim.ForceCompact()
	if twin.Sim.Pending() >= before {
		t.Fatalf("the barrier queue holds no cancelled events: Pending %d before and %d after a compaction",
			before, twin.Sim.Pending())
	}

	n := parked()
	pending, maxq := n.Sim.Pending(), n.Sim.MaxQueued()
	if err := n.ApplyDelta("tournament.window", 16); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if n.Sim.Pending() != pending || n.Sim.MaxQueued() != maxq {
		t.Fatalf("a no-op delta moved the queue counters: Pending %d -> %d, MaxQueued %d -> %d",
			pending, n.Sim.Pending(), maxq, n.Sim.MaxQueued())
	}
	n.RunTo(n.End())
	ref := buildDeltaNet(1, f)
	ref.Start(total, warmup)
	ref.RunTo(ref.End())
	if n.Sim.Pending() != ref.Sim.Pending() || n.Sim.MaxQueued() != ref.Sim.MaxQueued() {
		t.Fatalf("end of run: Pending %d, MaxQueued %d; the delta-free run ends with %d, %d",
			n.Sim.Pending(), n.Sim.MaxQueued(), ref.Sim.Pending(), ref.Sim.MaxQueued())
	}
}

// TestDeltaBoundariesExact pins the clamp-rejection boundaries at exactly the
// live limits: the last legal value applies cleanly and one step past it is a
// typed validation error, never a silent clamp.
func TestDeltaBoundariesExact(t *testing.T) {
	start := func(name string) *Network {
		n := buildDeltaNet(1, deltaFactories()[name])
		n.Start(2*sim.Second, sim.Second)
		n.RunTo(sim.Time(sim.Second))
		return n
	}

	// MILD defaults are BOmin 2, BOmax 64: span 62. A decrease step of 62
	// still has one non-clamping application; 63 would clamp on every one.
	mild := start("MACAW")
	if err := mild.ApplyDelta("mild.dec", 62); err != nil {
		t.Errorf("mild.dec=62 (exact span): %v", err)
	}
	if err := mild.ApplyDelta("mild.dec", 63); !errors.Is(err, ErrDeltaInvalid) {
		t.Errorf("mild.dec=63 (span+1) = %v, want ErrDeltaInvalid", err)
	}

	// DCF defaults are CWmin 15, CWmax 1023. cw.min may rise exactly to the
	// live cw.max and cw.max fall exactly to the live cw.min; one step past
	// either inverts the window and must fail with no station touched.
	d := start("DCF")
	if err := d.ApplyDelta("cw.min", 1023); err != nil {
		t.Errorf("cw.min=1023 (live cw.max): %v", err)
	}
	d = start("DCF")
	if err := d.ApplyDelta("cw.min", 1024); !errors.Is(err, ErrDeltaInvalid) {
		t.Errorf("cw.min=1024 = %v, want ErrDeltaInvalid", err)
	}
	if err := d.ApplyDelta("cw.max", 15); err != nil {
		t.Errorf("cw.max=15 (live cw.min): %v", err)
	}
	if err := d.ApplyDelta("cw.max", 14); !errors.Is(err, ErrDeltaInvalid) {
		t.Errorf("cw.max=14 = %v, want ErrDeltaInvalid", err)
	}
	if err := d.ApplyDelta("retry.short", 1); err != nil {
		t.Errorf("retry.short=1 (floor): %v", err)
	}
	if err := d.ApplyDelta("retry.long", 1); err != nil {
		t.Errorf("retry.long=1 (floor): %v", err)
	}

	// The tournament window floor is 2 (a 1-slot window has no elimination).
	tn := start("TOURN")
	if err := tn.ApplyDelta("tournament.window", 2); err != nil {
		t.Errorf("tournament.window=2 (floor): %v", err)
	}
	if err := tn.ApplyDelta("tournament.window", 1); !errors.Is(err, ErrDeltaInvalid) {
		t.Errorf("tournament.window=1 = %v, want ErrDeltaInvalid", err)
	}
}

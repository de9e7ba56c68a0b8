package core

import (
	"errors"
	"fmt"
	"testing"

	"macaw/internal/geom"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/dcf"
	"macaw/internal/mac/macaw"
	"macaw/internal/mac/token"
	"macaw/internal/mac/tournament"
	"macaw/internal/sim"
)

// buildForkNet builds the fork test topology: a base station and four pads in
// a single cell, two UDP streams up and one down, with the given MAC.
func buildForkNet(seed int64, f func() MACFactory) *Network {
	n := NewNetwork(seed)
	b := n.AddStation("B", geom.V(0, 0, 12), f())
	p1 := n.AddStation("P1", geom.V(4, 3, 6), f())
	p2 := n.AddStation("P2", geom.V(2, 3, 6), f())
	p3 := n.AddStation("P3", geom.V(0, 3, 6), f())
	n.AddStream(p1, b, UDP, 32)
	n.AddStream(p2, b, UDP, 32)
	n.AddStream(b, p3, UDP, 32)
	return n
}

func forkFactories() map[string]func() MACFactory {
	return map[string]func() MACFactory{
		"MACA":  func() MACFactory { return MACAFactory() },
		"MACAW": func() MACFactory { return MACAWFactory(macaw.DefaultOptions()) },
		"CSMA":  func() MACFactory { return CSMAFactory(csma.Options{ACK: true}) },
		"token": func() MACFactory { return TokenFactory(token.Options{Ring: RingOf(4)}) },
		"DCF":   func() MACFactory { return DCFFactory(dcf.Options{}) },
		"TOURN": func() MACFactory { return TournamentFactory(tournament.Options{}) },
	}
}

// TestAdoptFromContinuationBitIdentical is the adopt layer's core proof: a
// fork that adopts a warmed twin at a barrier and runs to the end produces
// byte-identical Results and a byte-identical final state inventory to the
// uninterrupted run, for every protocol and several seeds and barriers.
func TestAdoptFromContinuationBitIdentical(t *testing.T) {
	const total, warmup = 4 * sim.Second, 1 * sim.Second
	for name, f := range forkFactories() {
		for seed := int64(1); seed <= 5; seed++ {
			for _, barrier := range []sim.Time{sim.Time(warmup), sim.Time(total / 2)} {
				t.Run(fmt.Sprintf("%s/seed%d/b%d", name, seed, barrier), func(t *testing.T) {
					// The reference: one uninterrupted run.
					ref := buildForkNet(seed, f)
					ref.Start(total, warmup)
					ref.RunTo(ref.End())
					refRes := ref.Collect()
					refState := ref.AppendState(nil)

					// The warm twin, parked at the barrier.
					w := buildForkNet(seed, f)
					w.Start(total, warmup)
					w.RunTo(barrier)
					w.ForceCompactEvents()

					// The fork adopts and continues.
					fk := buildForkNet(seed, f)
					if err := fk.AdoptFrom(w); err != nil {
						t.Fatalf("AdoptFrom: %v", err)
					}
					fk.RunTo(fk.End())
					res := fk.Collect()
					state := fk.AppendState(nil)

					if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", refRes) {
						t.Errorf("results diverged:\n fork: %+v\n cold: %+v", res, refRes)
					}
					if string(state) != string(refState) {
						t.Errorf("final state diverged at %s", firstDiffLine(refState, state))
					}
				})
			}
		}
	}
}

// TestAdoptFromManyForksShareOneTwin adopts several forks from one warm twin
// sequentially, proving adoption leaves the twin intact (it only reads it).
func TestAdoptFromManyForksShareOneTwin(t *testing.T) {
	const total, warmup = 3 * sim.Second, 1 * sim.Second
	f := forkFactories()["MACAW"]
	w := buildForkNet(7, f)
	w.Start(total, warmup)
	w.RunTo(sim.Time(warmup))
	w.ForceCompactEvents()
	wantTwin := w.AppendState(nil)

	var first []byte
	for i := 0; i < 3; i++ {
		fk := buildForkNet(7, f)
		if err := fk.AdoptFrom(w); err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
		fk.RunTo(fk.End())
		state := fk.AppendState(nil)
		if first == nil {
			first = state
		} else if string(state) != string(first) {
			t.Fatalf("fork %d final state differs from fork 0 at %s", i, firstDiffLine(first, state))
		}
		if got := w.AppendState(nil); string(got) != string(wantTwin) {
			t.Fatalf("fork %d mutated the warm twin at %s", i, firstDiffLine(wantTwin, got))
		}
	}
}

// TestShareBarrierTwinAndForkRunOn pins the share barrier: a fork shares
// the twin's queued packets by pointer, so neither side may recycle one
// enqueued at or before the barrier. For every protocol, the twin and its
// fork run on in lockstep after adoption, and both must end with the Results
// and final state inventory of an unforked control run.
func TestShareBarrierTwinAndForkRunOn(t *testing.T) {
	const total, warmup = 4 * sim.Second, 1 * sim.Second
	const barrier = sim.Time(total / 2)
	render := func(n *Network) string { return fmt.Sprintf("%+v\n%s", n.Collect(), n.AppendState(nil)) }
	for name, f := range forkFactories() {
		t.Run(name, func(t *testing.T) {
			ctl := buildForkNet(2, f)
			ctl.Start(total, warmup)
			ctl.RunTo(ctl.End())
			want := render(ctl)

			w := buildForkNet(2, f)
			w.Start(total, warmup)
			w.RunTo(barrier)
			w.ForceCompactEvents()
			fk := buildForkNet(2, f)
			if err := fk.AdoptFrom(w); err != nil {
				t.Fatalf("AdoptFrom: %v", err)
			}
			for at := barrier + sim.Second/4; at <= w.End(); at += sim.Second / 4 {
				w.RunTo(at)
				fk.RunTo(at)
			}
			if got := render(w); got != want {
				t.Error("twin diverged from the control after its fork adopted")
			}
			if got := render(fk); got != want {
				t.Error("fork diverged from the control while its twin ran on")
			}
		})
	}
}

// TestAdoptFromRequiresShareBarrier pins the fail-closed path for a twin
// whose heap is compacted but that carries no share barrier at its current
// time: without one, the twin would recycle packets its fork still queues.
func TestAdoptFromRequiresShareBarrier(t *testing.T) {
	const total, warmup = 2 * sim.Second, 1 * sim.Second
	f := forkFactories()["MACAW"]
	w := buildForkNet(3, f)
	w.Start(total, warmup)
	w.RunTo(sim.Time(warmup) / 2)
	w.Sim.ForceCompact() // compacted, but no barrier recorded
	if err := buildForkNet(3, f).AdoptFrom(w); !errors.Is(err, ErrAdopt) {
		t.Fatalf("adopting from a twin without a share barrier: got %v, want ErrAdopt", err)
	}

	w.ForceCompactEvents()
	w.RunTo(sim.Time(warmup))
	w.Sim.ForceCompact() // the barrier is stale
	if err := buildForkNet(3, f).AdoptFrom(w); !errors.Is(err, ErrAdopt) {
		t.Fatalf("adopting from a twin with a stale share barrier: got %v, want ErrAdopt", err)
	}

	w.ForceCompactEvents()
	if err := buildForkNet(3, f).AdoptFrom(w); err != nil {
		t.Fatalf("adopting at the share barrier: %v", err)
	}
}

// TestAdoptFromRefusesMismatchedShapes pins the fail-closed paths.
func TestAdoptFromRefusesMismatchedShapes(t *testing.T) {
	const total, warmup = 2 * sim.Second, 1 * sim.Second
	f := forkFactories()["MACA"]
	w := buildForkNet(3, f)
	w.Start(total, warmup)
	w.RunTo(sim.Time(warmup))
	w.ForceCompactEvents()

	// A fork that has already run cannot adopt.
	ran := buildForkNet(3, f)
	ran.Start(total, warmup)
	ran.RunTo(sim.Second / 2)
	if err := ran.AdoptFrom(w); !errors.Is(err, ErrAdopt) {
		t.Fatalf("adopting into a running network: got %v, want ErrAdopt", err)
	}

	// A different protocol cannot adopt.
	other := buildForkNet(3, forkFactories()["MACAW"])
	if err := other.AdoptFrom(w); !errors.Is(err, ErrAdopt) {
		t.Fatalf("adopting across protocols: got %v, want ErrAdopt", err)
	}

	// A different station count cannot adopt.
	small := NewNetwork(3)
	small.AddStation("B", geom.V(0, 0, 12), f())
	if err := small.AdoptFrom(w); !errors.Is(err, ErrAdopt) {
		t.Fatalf("adopting a smaller network: got %v, want ErrAdopt", err)
	}
}

// TestForkWithDeltaMatchesColdDelta is the sweep engine's correctness core:
// for every protocol and delta kind, a fork that adopts a warmed twin and
// applies a typed delta at the barrier is byte-identical — Results and final
// state inventory — to a cold run applying the same delta at the same
// barrier.
func TestForkWithDeltaMatchesColdDelta(t *testing.T) {
	const total, warmup = 4 * sim.Second, 1 * sim.Second
	const barrier = sim.Time(warmup)
	deltas := []struct {
		kind  string
		value float64
	}{
		{"backoff.min", 4},
		{"backoff.max", 16},
		{"mild.inc", 2.0},
		{"mild.dec", 2},
		{"load.rate", 52},
		{"retry.limit", 2},
		{"cw.min", 31},
		{"cw.max", 511},
		{"retry.short", 3},
		{"retry.long", 2},
		{"tournament.window", 16},
	}
	for name, f := range forkFactories() {
		for _, d := range deltas {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s=%g/seed%d", name, d.kind, d.value, seed), func(t *testing.T) {
					cold := buildForkNet(seed, f)
					cold.Start(total, warmup)
					cold.RunTo(barrier)
					if err := cold.ApplyDelta(d.kind, d.value); err != nil {
						t.Fatalf("cold ApplyDelta: %v", err)
					}
					cold.RunTo(cold.End())
					coldRes := cold.Collect()
					coldState := cold.AppendState(nil)

					w := buildForkNet(seed, f)
					w.Start(total, warmup)
					w.RunTo(barrier)
					w.ForceCompactEvents()

					fk := buildForkNet(seed, f)
					if err := fk.AdoptFrom(w); err != nil {
						t.Fatalf("AdoptFrom: %v", err)
					}
					if err := fk.ApplyDelta(d.kind, d.value); err != nil {
						t.Fatalf("fork ApplyDelta: %v", err)
					}
					fk.RunTo(fk.End())
					res := fk.Collect()
					state := fk.AppendState(nil)

					if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", coldRes) {
						t.Errorf("results diverged:\n fork: %+v\n cold: %+v", res, coldRes)
					}
					if string(state) != string(coldState) {
						t.Errorf("final state diverged at %s", firstDiffLine(coldState, state))
					}
				})
			}
		}
	}
}

// TestApplyDeltaFailsClosed pins the typed error taxonomy.
func TestApplyDeltaFailsClosed(t *testing.T) {
	n := buildForkNet(1, forkFactories()["MACAW"])
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

// TestDeltaBoundariesExact pins the clamp-rejection boundaries at exactly the
// live limits: the last legal value applies cleanly and one step past it is a
// typed validation error, never a silent clamp.
func TestDeltaBoundariesExact(t *testing.T) {
	start := func(name string) *Network {
		n := buildForkNet(1, forkFactories()[name])
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

package phy

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// deadMedium runs a trial's world part way, so some of its transmissions
// are still on the air and its records and arrays are in use, and returns
// its medium for a new one to recycle.
func deadMedium(tr diffTrial, rng *rand.Rand) *Medium {
	w := buildWorld(tr, rng.Intn(2) == 0, nil)
	w.s.Run(sim.Time(rng.Int63n(int64(2 * sim.Second))))
	return w.m
}

// TestRecycleMatchesFresh drives random trials, with mobility, power
// cycling and a noise model, on media that Reuse built in the record of a
// larger and of a smaller dead medium, each half way through its own
// trial, taking over its storage, on the indexed and on the exhaustive
// paths. Each must deliver,
// corrupt and sense exactly what a fresh medium does, and dump the same
// state at the end. A recycled medium attaches its radios into the dead
// one's records, as many as it has.
func TestRecycleMatchesFresh(t *testing.T) {
	master := rand.New(rand.NewSource(0x2ec7c1e))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		tr := genTrial(master)
		exhaustive := trial%2 == 1
		fresh := buildWorld(tr, exhaustive, nil)
		fresh.s.RunAll()
		want, wantDump := fresh.signature(), statecheck.Dump(fresh.m)
		for _, larger := range []bool{true, false} {
			other := genTrial(master)
			for larger && other.n <= tr.n || !larger && other.n >= tr.n && tr.n > 4 {
				other = genTrial(master)
			}
			dead := deadMedium(other, master)
			deadRadios := slices.Clone(dead.radios)
			w := buildWorld(tr, exhaustive, dead)
			reused := 0
			for _, r := range w.radios {
				if slices.Contains(deadRadios, r) {
					reused++
				}
			}
			if wantReused := min(tr.n, other.n); reused != wantReused {
				t.Fatalf("trial %d: %d of %d radios reuse a dead record, want %d", trial, reused, tr.n, wantReused)
			}
			w.s.RunAll()
			if got := w.signature(); !slices.Equal(got, want) {
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("trial %d (n=%d, dead n=%d, exhaustive %v): recycled and fresh media diverge:\nrecycled: %s\nfresh:    %s",
							trial, tr.n, other.n, exhaustive, got[k], want[k])
					}
				}
			}
			if got := statecheck.Dump(w.m); !bytes.Equal(got, wantDump) {
				t.Fatalf("trial %d (n=%d, dead n=%d, exhaustive %v): recycled medium dumps unlike a fresh one",
					trial, tr.n, other.n, exhaustive)
			}
		}
	}
}

// TestRecycledMediumFailsClosed: once a medium's storage is handed on,
// attaching to it or transmitting from a radio it attached panics, as do
// transmitting from a radio a reused medium has not attached again,
// recycling a medium into itself, recycling or reusing one twice and
// recycling into a medium that already has radios.
func TestRecycledMediumFailsClosed(t *testing.T) {
	_, dead := newTestMedium(t)
	a := dead.Attach(1, geom.V(0, 0, 6), nil)
	dead.Attach(2, geom.V(6, 0, 6), nil)
	a.Transmit(ctrl(frame.RTS, 1, 2)) // on the air when recycled
	_, m := newTestMedium(t)
	m.recycle(dead)
	_, late := newTestMedium(t)
	late.Attach(1, geom.V(0, 0, 6), nil)
	// A reused medium is live again, but the radio records it has not
	// attached yet are not.
	s, reused := newTestMedium(t)
	stale := reused.Attach(1, geom.V(0, 0, 6), nil)
	reused.Attach(2, geom.V(6, 0, 6), nil)
	Reuse(reused, s, DefaultParams())
	reused.Attach(3, geom.V(0, 6, 6), nil) // into the record of radio 2
	for _, c := range []struct {
		name string
		fn   func()
	}{
		// First, so that a Reuse that rebuilt dead before failing would
		// let the Attach below through.
		{"Reuse of a recycled medium", func() { Reuse(dead, sim.New(1), DefaultParams()) }},
		{"Attach on the recycled medium", func() { dead.Attach(3, geom.V(0, 6, 6), nil) }},
		{"Transmit from a radio it attached", func() { a.Transmit(ctrl(frame.CTS, 1, 2)) }},
		{"Transmit from a radio of a reused medium", func() { stale.Transmit(ctrl(frame.CTS, 1, 2)) }},
		{"Recycle into itself", func() { m.recycle(m) }},
		{"Recycle of a recycled medium", func() { late.recycle(dead) }},
		{"Recycle after Attach", func() {
			_, d := newTestMedium(t)
			late.recycle(d)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// drawMix takes k draws through every rand.Rand entry point the simulation
// uses, so both Int63 and Uint64 paths of the source are exercised.
func drawMix(r *rand.Rand, k int) []float64 {
	out := make([]float64, 0, 4*k)
	for i := 0; i < k; i++ {
		out = append(out, float64(r.Int63()), float64(r.Uint64()), float64(r.Intn(1000)), r.ExpFloat64())
	}
	return out
}

// TestStreamsSeedLazily checks that a stream builds its generator on its
// first draw and deals exactly what a math/rand source seeded the same way
// deals — for the primary generator, whose seed is the simulator's.
func TestStreamsSeedLazily(t *testing.T) {
	s := New(99)
	r := s.NewRand()
	for i, c := range s.sources {
		if c.src != nil {
			t.Fatalf("stream %d built a generator before its first draw", i)
		}
	}
	r.Int63()
	if s.sources[0].src != nil || s.sources[1].src == nil {
		t.Fatal("a draw on stream 1 must build stream 1's generator and only it")
	}
	want := drawMix(rand.New(rand.NewSource(99)), 50)
	if got := drawMix(s.Rand(), 50); !reflect.DeepEqual(got, want) {
		t.Fatal("primary stream differs from math/rand seeded with the simulator seed")
	}
}

// cursors lists every stream's draw count, in stream-number order.
func cursors(s *Simulator) []uint64 {
	var out []uint64
	for _, c := range s.sources {
		out = append(out, c.draws)
	}
	return out
}

// TestRecycledStreamMatchesFresh requires a generator recycled from a dead
// simulator to deal the same values, and leave the same cursors, as a fresh
// one, over 1000 simulator seeds (3000 derived stream seeds). The recycling
// chain carries generators through every seed, with spares of varying
// history and count.
func TestRecycledStreamMatchesFresh(t *testing.T) {
	const k = 8
	var dead *Simulator
	reused := 0
	for i := 0; i < 1000; i++ {
		seed := int64(i)*7919 - 3_000_000
		fresh, rec := New(seed), New(seed)
		if dead != nil {
			rec.Recycle(dead)
		}
		spares := len(rec.spares)
		// Stream 2 stays undrawn on odd seeds, so the chain alternates
		// between handing on two and three generators.
		for stream := 1; stream <= 3; stream++ {
			rf, rr := fresh.NewRand(), rec.NewRand()
			if stream == 2 && i%2 == 1 {
				continue
			}
			if got, want := drawMix(rr, k+stream), drawMix(rf, k+stream); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d stream %d: recycled generator deals %v, fresh %v", seed, stream, got, want)
			}
		}
		if got, want := cursors(rec), cursors(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: recycled cursors %v, fresh %v", seed, got, want)
		}
		reused += spares - len(rec.spares)
		dead = rec
	}
	if reused < 2000 {
		t.Fatalf("only %d streams seeded into a recycled generator", reused)
	}
}

// TestRecycledSimulatorPanics pins the poison rule: once a simulator's
// generators have been handed on, every way of drawing from its streams
// panics — built or never drawn, primary or derived, directly or by
// re-seeding.
func TestRecycledSimulatorPanics(t *testing.T) {
	dead := New(5)
	built, lazy := dead.NewRand(), dead.NewRand()
	built.Int63()
	next := New(6)
	next.Recycle(dead)
	if len(next.spares) != 1 {
		t.Fatalf("recycling handed on %d generators, want the 1 built", len(next.spares))
	}
	for _, c := range []struct {
		name string
		draw func()
	}{
		{"built stream", func() { built.Int63() }},
		{"built Uint64", func() { built.Uint64() }},
		{"lazy stream", func() { lazy.Float64() }},
		{"primary", func() { dead.Rand().Intn(3) }},
		{"reseed", func() { built.Seed(1) }},
		{"self recycle", func() { next.Recycle(next) }},
		{"new stream", func() { dead.NewRand().Int63() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic after Recycle", c.name)
				}
			}()
			c.draw()
		}()
	}
	// The recipient is unharmed: its streams draw from the spare.
	if next.NewRand().Int63() != New(6).NewRand().Int63() {
		t.Fatal("recipient's stream differs from a fresh simulator's")
	}
}

package sim

// This file implements the simulator's RNG streams: lazily seeded, counted
// wrappers around Sources (source.go) whose generators can be handed from a
// finished simulator to the next one (DESIGN.md §8, "Recycled RNG streams").
//
// A Source is math/rand's generator: a 607-word lagged-Fibonacci state,
// about 4.9 KB, whose seeding is 1841 Lehmer steps, computed in four
// overlapping chains. A stream keeps only its derived seed until its first
// draw, so a stream nobody draws from — a simulator's primary generator, a
// medium without a noise model — costs a few dozen bytes. Seeding
// overwrites a source's whole state, so a generator taken over from a dead
// simulator and re-seeded deals exactly the values a fresh rand.NewSource
// would.

// countingSource wraps a Source and counts draws. Both Int63 and
// Uint64 advance the underlying generator by exactly one internal step, so
// the count is a complete cursor into the stream. Wrapping preserves the
// exact output sequence: rand.Rand routes every draw through Int63/Uint64,
// and the wrapper forwards them 1:1.
//
// The stream keeps its derived seed and builds its generator on the first
// Int63, Uint64 or Seed call, from its simulator's spares when it has any
// (see Simulator.Recycle). Once its simulator has been recycled the stream
// is poisoned: it holds no generator, and building one panics.
type countingSource struct {
	src      *Source // nil until the first draw, and again once recycled
	draws    uint64
	streamNo int64 // 0 = the simulator's primary generator
	seed     int64
	s        *Simulator
}

// newSource registers a lazily seeded stream with the simulator.
func (s *Simulator) newSource(streamNo, seed int64) *countingSource {
	c := &countingSource{streamNo: streamNo, seed: seed, s: s}
	s.sources = append(s.sources, c)
	return c
}

// gen returns the stream's generator, building it on first use.
func (c *countingSource) gen() *Source {
	if c.src == nil {
		c.src = c.s.generator(c.seed)
	}
	return c.src
}

func (c *countingSource) Int63() int64 {
	g := c.gen()
	c.draws++
	return g.Int63()
}

func (c *countingSource) Uint64() uint64 {
	g := c.gen()
	c.draws++
	return g.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.seed, c.draws = seed, 0
	if c.src == nil {
		c.src = c.s.generator(seed)
	} else {
		c.src.Seed(seed)
	}
}

// generator returns a source seeded with seed: a re-seeded spare when one
// is left, a new one otherwise.
func (s *Simulator) generator(seed int64) *Source {
	if s.recycled {
		panic("sim: RNG draw on a recycled simulator")
	}
	n := len(s.spares)
	if n == 0 {
		return NewSource(seed)
	}
	g := s.spares[n-1]
	s.spares[n-1] = nil
	s.spares = s.spares[:n-1]
	g.Seed(seed)
	return g
}

// Recycle takes over dead's storage: every generator dead has built, and
// every spare it did not use, as spares for s's streams, and dead's event
// slab, heap array and free-index array wherever they are larger than s's.
// dead's pending events are dropped. dead must be finished for good: its
// streams are poisoned, so any later draw from them — directly, through a
// *rand.Rand it handed out — panics, and so does scheduling on it. Its
// handles stop referring to pending events and keep answering When and
// Cancelled from their own snapshots. Sharded runners call it on each
// worker, so a component network seeds its streams into the generators of
// the component before it instead of allocating fresh ones, and a worker
// holds event storage for its largest component only. Neither hand-off is
// observable: seeding overwrites a source's whole state, and the taken-over
// capacity holds no record until s schedules one, so s's Pending, free list
// and MaxQueued read as for a fresh simulator.
func (s *Simulator) Recycle(dead *Simulator) {
	if dead == s {
		panic("sim: a simulator cannot recycle itself")
	}
	spares := append(dead.spares, s.spares...)
	for _, c := range dead.sources {
		if c.src != nil {
			spares = append(spares, c.src)
			c.src = nil
		}
	}
	s.spares, dead.spares = spares, nil

	clear(dead.slab) // drop the pending callbacks and zero every seq
	s.slab = reuse(s.slab, dead.slab)
	s.queue = reuse(s.queue, dead.queue)
	s.free = reuse(s.free, dead.free)
	dead.slab, dead.queue, dead.free = nil, nil, nil
	dead.ncancelled = 0
	dead.recycled = true
}

// reuse returns own's elements in whichever of own and spare has the larger
// capacity. Elements keep their positions, so slab indices stay valid.
func reuse[T any](own, spare []T) []T {
	if cap(spare) <= cap(own) {
		return own
	}
	return append(spare[:0], own...)
}

// Package traffic provides the workload generator of the paper's
// simulator: constant-bit-rate sources ("the devices generate data at a
// constant rate of either 32 or 64 packets per second").
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"macaw/internal/sim"
)

// CBR is a constant-bit-rate source emitting one packet every 1/rate
// seconds. A random initial phase (drawn from rng) decorrelates multiple
// CBR sources that would otherwise fire in lockstep.
type CBR struct {
	s        *sim.Simulator
	interval sim.Duration
	phase    sim.Duration
	offer    func()
	running  bool
	stopAt   sim.Time
	hasStop  bool
	ev       sim.Event
}

// NewCBR returns a CBR source at rate packets/second calling offer for each
// packet. rng supplies the initial phase; it may be nil for phase zero.
func NewCBR(s *sim.Simulator, rate float64, rng *rand.Rand, offer func()) *CBR {
	if rate <= 0 {
		panic("traffic: non-positive CBR rate")
	}
	interval := sim.Duration(math.Round(float64(sim.Second) / rate))
	c := &CBR{s: s, interval: interval, offer: offer}
	if rng != nil {
		c.phase = sim.Duration(rng.Int63n(int64(interval)))
	}
	return c
}

// SetRate rewrites the source's rate to rate packets/second, effective from
// the next tick: the pending tick keeps its scheduled time, and every gap
// after it uses the new interval. Barrier-time sweep deltas use this.
func (c *CBR) SetRate(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("traffic: non-positive CBR rate %g", rate)
	}
	c.interval = sim.Duration(math.Round(float64(sim.Second) / rate))
	return nil
}

// Start begins generation at time t plus the source's phase.
func (c *CBR) Start(t sim.Time) {
	if c.running {
		return
	}
	c.running = true
	c.ev = c.s.AtPriorityCall(t+c.phase, 0, sim.Call[*CBR], c, (*CBR).tick)
}

// Stop ceases generation at time t.
func (c *CBR) Stop(t sim.Time) {
	c.stopAt = t
	c.hasStop = true
	if t <= c.s.Now() {
		c.running = false
		c.ev.Cancel()
	}
}

func (c *CBR) tick() {
	if !c.running || (c.hasStop && c.s.Now() >= c.stopAt) {
		c.running = false
		return
	}
	c.offer()
	c.ev = c.s.AtPriorityCall(c.s.Now()+c.interval, 0, sim.Call[*CBR], c, (*CBR).tick)
}

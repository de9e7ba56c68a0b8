// Package traffic provides the workload generators of the paper's
// simulator: constant-bit-rate sources ("the devices generate data at a
// constant rate of either 32 or 64 packets per second") plus a Poisson
// source for robustness experiments.
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"macaw/internal/sim"
)

// Generator produces application packets by invoking an offer callback.
type Generator interface {
	// Start begins generation at time t.
	Start(t sim.Time)
	// Stop ceases generation at time t.
	Stop(t sim.Time)
	// Generated reports the number of offers made so far.
	Generated() int
}

// CBR is a constant-bit-rate source emitting one packet every 1/rate
// seconds. A random initial phase (drawn from rng) decorrelates multiple
// CBR sources that would otherwise fire in lockstep.
type CBR struct {
	s        *sim.Simulator
	interval sim.Duration
	phase    sim.Duration
	offer    func()
	count    int
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

// Interval returns the inter-packet gap.
func (c *CBR) Interval() sim.Duration { return c.interval }

// Generated implements Generator.
func (c *CBR) Generated() int { return c.count }

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

// Start implements Generator.
func (c *CBR) Start(t sim.Time) {
	if c.running {
		return
	}
	c.running = true
	c.ev = c.s.AtPriorityCall(t+c.phase, 0, sim.Call[*CBR], c, (*CBR).tick)
}

// Stop implements Generator.
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
	c.count++
	c.offer()
	c.ev = c.s.AtPriorityCall(c.s.Now()+c.interval, 0, sim.Call[*CBR], c, (*CBR).tick)
}

// Poisson emits packets with exponentially distributed gaps at the given
// mean rate.
type Poisson struct {
	s       *sim.Simulator
	rate    float64
	rng     *rand.Rand
	offer   func()
	count   int
	running bool
	stopAt  sim.Time
	hasStop bool
	ev      sim.Event
}

// NewPoisson returns a Poisson source at mean rate packets/second.
func NewPoisson(s *sim.Simulator, rate float64, rng *rand.Rand, offer func()) *Poisson {
	if rate <= 0 {
		panic("traffic: non-positive Poisson rate")
	}
	if rng == nil {
		panic("traffic: Poisson requires an rng")
	}
	return &Poisson{s: s, rate: rate, rng: rng, offer: offer}
}

// Generated implements Generator.
func (p *Poisson) Generated() int { return p.count }

// Start implements Generator.
func (p *Poisson) Start(t sim.Time) {
	if p.running {
		return
	}
	p.running = true
	p.ev = p.s.AtPriorityCall(t+p.gap(), 0, sim.Call[*Poisson], p, (*Poisson).tick)
}

// Stop implements Generator.
func (p *Poisson) Stop(t sim.Time) {
	p.stopAt = t
	p.hasStop = true
	if t <= p.s.Now() {
		p.running = false
		p.ev.Cancel()
	}
}

func (p *Poisson) gap() sim.Duration {
	return sim.Duration(p.rng.ExpFloat64() / p.rate * float64(sim.Second))
}

func (p *Poisson) tick() {
	if !p.running || (p.hasStop && p.s.Now() >= p.stopAt) {
		p.running = false
		return
	}
	p.count++
	p.offer()
	p.ev = p.s.AtPriorityCall(p.s.Now()+p.gap(), 0, sim.Call[*Poisson], p, (*Poisson).tick)
}

// AppendState appends the source's full state for the snapshot inventory
// (DESIGN.md §14): phase, tick count, running/stop flags, and the pending
// tick's scheduled time (the event's identity lives in the engine dump).
func (c *CBR) AppendState(b []byte) []byte {
	return fmt.Appendf(b, "cbr interval=%d phase=%d count=%d running=%t stopAt=%d hasStop=%t next=%d\n",
		c.interval, c.phase, c.count, c.running, c.stopAt, c.hasStop, c.ev.When())
}

// AppendState appends the source's full state for the snapshot inventory.
func (p *Poisson) AppendState(b []byte) []byte {
	return fmt.Appendf(b, "poisson rate=%g count=%d running=%t stopAt=%d hasStop=%t next=%d\n",
		p.rate, p.count, p.running, p.stopAt, p.hasStop, p.ev.When())
}

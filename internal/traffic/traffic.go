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
// It panics on a rate that Interval refuses. The source is a value, so a
// host can keep it in a record of its own; once started it schedules
// itself by address, so it must not be copied.
func NewCBR(s *sim.Simulator, rate float64, rng *rand.Rand, offer func()) CBR {
	interval, err := Interval(rate)
	if err != nil {
		panic(err.Error())
	}
	c := CBR{s: s, interval: interval, offer: offer}
	if rng != nil {
		c.phase = sim.Duration(rng.Int63n(int64(interval)))
	}
	return c
}

// SetRate rewrites the source's rate to rate packets/second, effective from
// the next tick: the pending tick keeps its scheduled time, and every gap
// after it uses the new interval. Barrier-time sweep deltas use this.
func (c *CBR) SetRate(rate float64) error {
	interval, err := Interval(rate)
	if err != nil {
		return err
	}
	c.interval = interval
	return nil
}

// Interval is the gap between packets at rate packets/second. It refuses a
// rate that is not positive (NaN included) and one so high that the gap
// rounds to zero simulator ticks: such a source would offer packets at one
// instant forever.
func Interval(rate float64) (sim.Duration, error) {
	if !(rate > 0) {
		return 0, fmt.Errorf("traffic: CBR rate %g is not positive", rate)
	}
	gap := sim.Duration(math.Round(float64(sim.Second) / rate))
	if gap < 1 {
		return 0, fmt.Errorf("traffic: CBR rate %g pps rounds to a zero gap between packets", rate)
	}
	return gap, nil
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

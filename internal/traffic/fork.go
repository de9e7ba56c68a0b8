package traffic

import (
	"fmt"
	"math"

	"macaw/internal/sim"
)

// AdoptFrom copies w's generation state into c and re-arms the pending tick
// at its exact (when, prio, seq) ordering key (DESIGN.md §15). The build-time
// parameters — interval and the RNG-drawn phase — must already match: a fork
// is only valid against an identically built network, whose build-time draws
// reproduce the warm twin's. Adoption fails closed on any other generator
// shape (Poisson draws from its RNG on every tick; forking it would need the
// cursor fast-forward to land mid-gap, which the core layer does not claim).
// SetRate rewrites the source's rate to rate packets/second, effective from
// the next tick: the pending tick keeps its scheduled time, and every gap
// after it uses the new interval. Barrier-time sweep deltas use this; applied
// at the same virtual time on a cold run and a warm fork, the tick sequences
// are identical.
func (c *CBR) SetRate(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("traffic: non-positive CBR rate %g", rate)
	}
	c.interval = sim.Duration(math.Round(float64(sim.Second) / rate))
	return nil
}

func (c *CBR) AdoptFrom(w Generator) error {
	wc, ok := w.(*CBR)
	if !ok {
		return fmt.Errorf("traffic: adopt: generator is %T here vs %T in warm twin", c, w)
	}
	if c.interval != wc.interval || c.phase != wc.phase {
		return fmt.Errorf("traffic: adopt: cbr interval/phase %d/%d here vs %d/%d in warm twin",
			c.interval, c.phase, wc.interval, wc.phase)
	}
	c.count = wc.count
	c.running = wc.running
	c.stopAt = wc.stopAt
	c.hasStop = wc.hasStop
	c.ev = c.s.ReadoptCall(wc.ev, sim.Call[*CBR], c, (*CBR).tick)
	return nil
}

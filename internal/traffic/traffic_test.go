package traffic

import (
	"math"
	"testing"

	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

func TestCBRRateExact(t *testing.T) {
	s := sim.New(1)
	n := 0
	var last, gap sim.Time
	c := NewCBR(s, 64, nil, func() {
		if n > 0 && s.Now()-last != 15625*sim.Microsecond {
			gap = s.Now() - last
		}
		n++
		last = s.Now()
	})
	c.Start(0)
	s.Run(1 * sim.Second)
	if gap != 0 {
		t.Fatalf("offers %v apart, want 15.625ms", gap)
	}
	if n < 64 || n > 65 {
		t.Fatalf("64pps generated %d in 1s", n)
	}
}

func TestCBRPhaseDesynchronizes(t *testing.T) {
	s := sim.New(1)
	var t1, t2 []sim.Time
	c1 := NewCBR(s, 32, s.NewRand(), func() { t1 = append(t1, s.Now()) })
	c2 := NewCBR(s, 32, s.NewRand(), func() { t2 = append(t2, s.Now()) })
	c1.Start(0)
	c2.Start(0)
	s.Run(1 * sim.Second)
	if len(t1) == 0 || len(t2) == 0 {
		t.Fatal("no packets generated")
	}
	if t1[0] == t2[0] {
		t.Fatal("two randomized CBR sources fired at the identical instant")
	}
}

func TestCBRStop(t *testing.T) {
	s := sim.New(1)
	n := 0
	c := NewCBR(s, 100, nil, func() { n++ })
	c.Start(0)
	c.Stop(500 * sim.Millisecond)
	s.Run(2 * sim.Second)
	if n < 45 || n > 55 {
		t.Fatalf("stopped CBR generated %d, want ~50", n)
	}
}

func TestCBRStopImmediately(t *testing.T) {
	s := sim.New(1)
	n := 0
	c := NewCBR(s, 100, nil, func() { n++ })
	c.Start(0)
	s.Run(100 * sim.Millisecond)
	c.Stop(s.Now())
	s.Run(1 * sim.Second)
	if n > 12 {
		t.Fatalf("immediate stop generated %d", n)
	}
}

func TestCBRDoubleStartIgnored(t *testing.T) {
	s := sim.New(1)
	n := 0
	c := NewCBR(s, 10, nil, func() { n++ })
	c.Start(0)
	c.Start(0)
	s.Run(1 * sim.Second)
	if n > 11 {
		t.Fatalf("double start doubled the rate: %d", n)
	}
}

// TestCBRInvalidRatePanics covers the rates a source refuses: not
// positive, NaN, and so high (infinite included) that the gap between
// packets rounds to zero, which would offer packets at one instant
// forever. NewCBR panics on each and SetRate returns an error.
func TestCBRInvalidRatePanics(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), 1e12, 2.1e9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for rate %g", rate)
				}
			}()
			NewCBR(sim.New(1), rate, nil, func() {})
		}()
		c := NewCBR(sim.New(1), 8, nil, func() {})
		if err := c.SetRate(rate); err == nil {
			t.Fatalf("SetRate(%g) = nil, want an error", rate)
		}
	}
	// A packet per simulator tick is accepted.
	NewCBR(sim.New(1), float64(sim.Second), nil, func() {})
}

// TestTicksAllocationFree pins DESIGN.md §8's no-per-event-allocation rule
// for the traffic layer: each tick re-arms the next with the receiver and a
// method expression riding in a pooled event record, so a running source
// allocates nothing per packet beyond what its offer callback does.
func TestTicksAllocationFree(t *testing.T) {
	s := sim.New(1)
	n := 0
	c := NewCBR(s, 64, nil, func() { n++ })
	c.Start(0)
	if allocs := statecheck.Mallocs(t, 100, func() { s.Step() }); allocs != 0 {
		t.Errorf("a tick allocated %d times, want 0", allocs)
	}
	if n != 400 {
		t.Fatalf("%d offers, want 400", n)
	}
}

package traffic

import (
	"testing"

	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

func TestCBRRateExact(t *testing.T) {
	s := sim.New(1)
	n := 0
	c := NewCBR(s, 64, nil, func() { n++ })
	if c.Interval() != 15625*sim.Microsecond {
		t.Fatalf("interval = %v, want 15.625ms", c.Interval())
	}
	c.Start(0)
	s.Run(1 * sim.Second)
	if n < 64 || n > 65 {
		t.Fatalf("64pps generated %d in 1s", n)
	}
	if c.Generated() != n {
		t.Fatal("Generated() mismatch")
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

func TestCBRInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rate 0")
		}
	}()
	NewCBR(sim.New(1), 0, nil, func() {})
}

func TestPoissonMeanRate(t *testing.T) {
	s := sim.New(2)
	n := 0
	p := NewPoisson(s, 100, s.NewRand(), func() { n++ })
	p.Start(0)
	s.Run(20 * sim.Second)
	if n < 1700 || n > 2300 {
		t.Fatalf("poisson 100pps generated %d in 20s", n)
	}
	if p.Generated() != n {
		t.Fatal("Generated() mismatch")
	}
}

func TestPoissonStop(t *testing.T) {
	s := sim.New(3)
	n := 0
	p := NewPoisson(s, 100, s.NewRand(), func() { n++ })
	p.Start(0)
	p.Stop(1 * sim.Second)
	s.Run(5 * sim.Second)
	if n > 130 {
		t.Fatalf("stopped poisson generated %d", n)
	}
}

func TestPoissonRequiresRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil rng")
		}
	}()
	NewPoisson(sim.New(1), 1, nil, func() {})
}

func TestGeneratorInterfaces(t *testing.T) {
	s := sim.New(1)
	var _ Generator = NewCBR(s, 1, nil, func() {})
	var _ Generator = NewPoisson(s, 1, s.NewRand(), func() {})
}

// TestTicksAllocationFree pins DESIGN.md §8's no-per-event-allocation rule
// for the traffic layer: each tick re-arms the next with the receiver and a
// method expression riding in a pooled event record, so a running source
// allocates nothing per packet beyond what its offer callback does.
func TestTicksAllocationFree(t *testing.T) {
	for name, build := range map[string]func(*sim.Simulator, func()) Generator{
		"cbr":     func(s *sim.Simulator, offer func()) Generator { return NewCBR(s, 64, nil, offer) },
		"poisson": func(s *sim.Simulator, offer func()) Generator { return NewPoisson(s, 64, s.NewRand(), offer) },
	} {
		s := sim.New(1)
		n := 0
		g := build(s, func() { n++ })
		g.Start(0)
		if allocs := statecheck.Mallocs(100, func() { s.Step() }); allocs != 0 {
			t.Errorf("%s: a tick allocated %d times, want 0", name, allocs)
		}
		if n != 400 || g.Generated() != n {
			t.Fatalf("%s: %d offers, Generated %d, want 400", name, n, g.Generated())
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"macaw/internal/geom"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/macaw"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

// randomScenario builds an arbitrary network — random station placement,
// random protocol mix per run, random streams, random noise, random power
// and mobility events — and checks global invariants: the run terminates,
// nothing panics, and accounting is conserved. This is the repository's
// failure-injection net: any FSM deadlock, timer leak, or double-delivery
// bug tends to surface here long before a scripted scenario hits it.
func randomScenario(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n := NewNetwork(seed)

	factories := []MACFactory{
		MACAFactory(),
		MACAWFactory(macaw.DefaultOptions()),
		MACAWFactory(macaw.Options{Exchange: macaw.Basic}),
		MACAWFactory(macaw.Options{Exchange: macaw.WithACK, PerStream: true}),
		MACAWFactory(func() macaw.Options { o := macaw.DefaultOptions(); o.NACK = true; return o }()),
		MACAWFactory(func() macaw.Options { o := macaw.DefaultOptions(); o.PiggybackACK = true; return o }()),
		MACAWFactory(func() macaw.Options { o := macaw.DefaultOptions(); o.CarrierSense = true; return o }()),
		CSMAFactory(csma.Options{ACK: true}),
	}
	// One protocol per run: mixing protocols in one cell is not a
	// supported deployment (they would still interoperate at the PHY).
	f := factories[r.Intn(len(factories))]

	nStations := 2 + r.Intn(8)
	var stations []*Station
	for i := 0; i < nStations; i++ {
		pos := geom.V(r.Float64()*40-20, r.Float64()*40-20, 6+float64(r.Intn(2))*6)
		stations = append(stations, n.AddStation(fmt.Sprintf("S%d", i), pos, f))
	}

	nStreams := 1 + r.Intn(6)
	for i := 0; i < nStreams; i++ {
		from := stations[r.Intn(len(stations))]
		to := stations[r.Intn(len(stations))]
		if from == to {
			continue
		}
		kind := UDP
		if r.Intn(3) == 0 {
			kind = TCP
		}
		st := n.AddStream(from, to, kind, 4+float64(r.Intn(60)))
		st.SetStart(sim.Duration(r.Intn(3)) * sim.Second)
	}

	// Half the scenarios (draws 2 and 3) run on a noiseless medium.
	switch r.Intn(4) {
	case 0:
		n.Medium.SetNoise(phy.DestLoss{P: r.Float64() * 0.2})
	case 1:
		n.Medium.SetNoise(phy.UniformLoss{P: r.Float64() * 0.05})
	}

	// Random power and mobility events.
	if r.Intn(2) == 0 && len(stations) > 2 {
		n.PowerOff(stations[r.Intn(len(stations))], sim.Duration(1+r.Intn(5))*sim.Second)
	}
	if r.Intn(2) == 0 {
		st := stations[r.Intn(len(stations))]
		n.MoveStation(st, sim.Duration(2+r.Intn(5))*sim.Second,
			geom.V(r.Float64()*40-20, r.Float64()*40-20, st.Radio().Pos().Z))
	}

	res := n.Run(15*sim.Second, 1*sim.Second)

	// Invariants: deliveries never exceed offers; the medium's counters
	// are consistent; the event queue is not still spinning pathologically
	// (Run returned).
	for _, s := range res.Streams {
		if s.Delivered > s.Offered {
			t.Fatalf("seed %d: stream %s delivered %d > offered %d", seed, s.Name, s.Delivered, s.Offered)
		}
		if s.PPS < 0 {
			t.Fatalf("seed %d: negative rate", seed)
		}
	}
	m := n.Medium.Counters()
	if m.Delivered+m.Corrupted+m.NoiseDropped+m.Aborted < 0 {
		t.Fatalf("seed %d: counter overflow %+v", seed, m)
	}
	if f := res.Fairness(); f < 0 || f > 1.0000001 {
		t.Fatalf("seed %d: fairness out of range: %v", seed, f)
	}
}

func TestRandomScenarios(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			randomScenario(t, seed)
		})
	}
}

// TestRandomScenarioDeterminism re-runs a sample of random scenarios and
// compares full results: the whole stack must be a pure function of the
// seed.
func TestRandomScenarioDeterminism(t *testing.T) {
	build := func(seed int64) Results {
		r := rand.New(rand.NewSource(seed))
		n := NewNetwork(seed)
		f := MACAWFactory(macaw.DefaultOptions())
		var stations []*Station
		for i := 0; i < 4+r.Intn(3); i++ {
			stations = append(stations, n.AddStation(fmt.Sprintf("S%d", i),
				geom.V(r.Float64()*20-10, r.Float64()*20-10, 6), f))
		}
		for i := 0; i+1 < len(stations); i++ {
			n.AddStream(stations[i], stations[i+1], UDP, 20)
		}
		return n.Run(10*sim.Second, 1*sim.Second)
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := build(seed), build(seed)
		for i := range a.Streams {
			if a.Streams[i].Delivered != b.Streams[i].Delivered {
				t.Fatalf("seed %d stream %d: %d vs %d", seed, i,
					a.Streams[i].Delivered, b.Streams[i].Delivered)
			}
		}
	}
}

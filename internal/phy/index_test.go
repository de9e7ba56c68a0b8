package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// The tests in this file validate the neighborhood index (DESIGN.md §10):
// the indexed medium must be bit-identical to the exhaustive one on every
// observable — deliveries, corruptions, carrier transitions, counters, and
// the raw carrier-sense energies — across random topologies, mobility,
// noise sources, and power cycling.

// scriptEvent is one externally driven medium event.
type scriptEvent struct {
	at    sim.Time
	kind  int // 0 = transmit, 1 = move, 2 = power, 3 = noise toggle
	radio int
	dst   frame.NodeID
	bytes uint16
	pos   geom.Vec3
	on    bool
	src   int // noise-source index
}

const (
	evTx = iota
	evMove
	evPower
	evNoise
)

// diffTrial describes one random (topology, script) pair.
type diffTrial struct {
	n       int
	pos     []geom.Vec3
	sources []geom.Vec3
	power   []float64
	events  []scriptEvent
	simSeed int64
}

// genTrial draws a random trial. Positions span several cutoff radii so
// neighborhoods are proper subsets of the station set, and the script mixes
// overlapping transmissions with mobility (including moves across the
// cutoff), power cycling, and noise-source toggles.
func genTrial(rng *rand.Rand) diffTrial {
	tr := diffTrial{
		n:       4 + rng.Intn(21),
		simSeed: rng.Int63(),
	}
	area := 40 + rng.Float64()*360 // up to ~3.5 cutoff radii across
	rpos := func() geom.Vec3 {
		return geom.V(rng.Float64()*area, rng.Float64()*area, rng.Float64()*20)
	}
	for i := 0; i < tr.n; i++ {
		tr.pos = append(tr.pos, rpos())
	}
	for i := 0; i < 2; i++ {
		tr.sources = append(tr.sources, rpos())
		tr.power = append(tr.power, 0.25+rng.Float64()*4)
	}
	nev := 40 + rng.Intn(40)
	horizon := sim.Time(2_000_000_000) // 2 s
	for i := 0; i < nev; i++ {
		ev := scriptEvent{
			at:    sim.Time(rng.Int63n(int64(horizon))),
			radio: rng.Intn(tr.n),
		}
		switch r := rng.Float64(); {
		case r < 0.55:
			ev.kind = evTx
			ev.dst = frame.NodeID(rng.Intn(tr.n) + 1)
			ev.bytes = uint16(30 + rng.Intn(512))
		case r < 0.75:
			ev.kind = evMove
			ev.pos = rpos()
		case r < 0.88:
			ev.kind = evPower
			ev.on = rng.Float64() < 0.6
		default:
			ev.kind = evNoise
			ev.src = rng.Intn(len(tr.sources))
			ev.on = rng.Float64() < 0.5
		}
		tr.events = append(tr.events, ev)
	}
	return tr
}

// diffWorld is one medium instance driven by a trial script.
type diffWorld struct {
	s       *sim.Simulator
	m       *Medium
	radios  []*Radio
	recs    []*recorder
	sources []*NoiseSource
}

func buildWorld(tr diffTrial, exhaustive bool) *diffWorld {
	w := &diffWorld{s: sim.New(tr.simSeed)}
	w.m = New(w.s, DefaultParams())
	w.m.SetExhaustive(exhaustive)
	w.m.SetNoise(UniformLoss{P: 0.15})
	for i := 0; i < tr.n; i++ {
		rec := &recorder{}
		w.recs = append(w.recs, rec)
		w.radios = append(w.radios, w.m.Attach(frame.NodeID(i+1), tr.pos[i], rec))
	}
	for i, p := range tr.sources {
		w.sources = append(w.sources, w.m.AddNoiseSource(p, tr.power[i]))
	}
	for _, ev := range tr.events {
		ev := ev
		w.s.At(ev.at, func() {
			r := w.radios[ev.radio]
			switch ev.kind {
			case evTx:
				if r.Transmitting() {
					return
				}
				f := &frame.Frame{Type: frame.DATA, Src: r.ID(), Dst: ev.dst, DataBytes: ev.bytes}
				r.Transmit(f)
			case evMove:
				r.SetPos(ev.pos)
			case evPower:
				r.SetEnabled(ev.on)
			case evNoise:
				w.sources[ev.src].Set(ev.on)
			}
		})
	}
	return w
}

// signature flattens a world's observable history into comparable strings.
func (w *diffWorld) signature() []string {
	var out []string
	for i, rec := range w.recs {
		line := fmt.Sprintf("radio %d rx:", i)
		for _, f := range rec.received {
			line += fmt.Sprintf(" %v>%v/%d", f.Src, f.Dst, f.DataBytes)
		}
		out = append(out, line)
		line = fmt.Sprintf("radio %d bad:", i)
		for _, f := range rec.corrupted {
			line += fmt.Sprintf(" %v>%v/%d", f.Src, f.Dst, f.DataBytes)
		}
		out = append(out, line)
		line = fmt.Sprintf("radio %d cs:", i)
		for _, b := range rec.carrier {
			line += fmt.Sprintf(" %v", b)
		}
		out = append(out, line)
		out = append(out, fmt.Sprintf("radio %d busy=%v enabled=%v carrier=%016x",
			i, w.radios[i].CarrierBusy(), w.radios[i].Enabled(),
			math.Float64bits(w.m.carrier[i])))
	}
	out = append(out, fmt.Sprintf("counters %+v", w.m.Counters()))
	return out
}

// TestIndexedMatchesExhaustive is the differential property test: the
// indexed and exhaustive media, driven by identical scripts over random
// topologies, must agree bit-for-bit on every observable.
func TestIndexedMatchesExhaustive(t *testing.T) {
	master := rand.New(rand.NewSource(0x1db5eed))
	const trials = 120
	for trial := 0; trial < trials; trial++ {
		tr := genTrial(master)
		wi := buildWorld(tr, false)
		we := buildWorld(tr, true)
		if !wi.m.IndexEnabled() {
			t.Fatal("index not enabled under default params")
		}
		if we.m.IndexEnabled() {
			t.Fatal("exhaustive override did not disable the index")
		}
		wi.s.RunAll()
		we.s.RunAll()
		si, se := wi.signature(), we.signature()
		if len(si) != len(se) {
			t.Fatalf("trial %d: signature lengths differ: %d vs %d", trial, len(si), len(se))
		}
		for k := range si {
			if si[k] != se[k] {
				t.Fatalf("trial %d (n=%d): indexed and exhaustive media diverge:\nindexed:    %s\nexhaustive: %s",
					trial, tr.n, si[k], se[k])
			}
		}
	}
}

// TestIndexSurvivesPropagationSwap checks that swapping propagation models
// re-derives the index (BooleanRange certifies its own range; a bare
// GainFunc cannot, so the index must drop to exhaustive iteration).
func TestIndexSurvivesPropagationSwap(t *testing.T) {
	_, m := newTestMedium(t)
	if !m.IndexEnabled() {
		t.Fatal("default medium should be indexed")
	}
	m.SetPropagation(BooleanRange(25))
	if !m.IndexEnabled() {
		t.Fatal("BooleanRange certifies a range; index should stay enabled")
	}
	if m.cutoff != 25 {
		t.Fatalf("cutoff = %v, want 25", m.cutoff)
	}
	m.SetPropagation(GainFunc(func(a, b geom.Vec3) float64 { return 1 }))
	if m.IndexEnabled() {
		t.Fatal("a bare GainFunc cannot certify a range; index must disable")
	}
	m.SetPropagation(NewPropagation(DefaultParams()))
	if !m.IndexEnabled() {
		t.Fatal("restoring a Bounded model should re-enable the index")
	}
}

// TestGainClampedBelowFloor checks the negligibility-floor semantics: gains
// under the floor are stored and returned as exactly zero, so skipping
// their contributors is bit-identical to summing them.
func TestGainClampedBelowFloor(t *testing.T) {
	_, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 0), nil)
	b := m.Attach(2, geom.V(500, 0, 0), nil) // far beyond the ~102 ft cutoff
	c := m.Attach(3, geom.V(5, 0, 0), nil)
	if g := m.gain(a, b); g != 0 {
		t.Fatalf("gain beyond cutoff = %v, want exactly 0", g)
	}
	if g := m.gain(a, c); g <= 0 {
		t.Fatalf("in-range gain = %v, want positive", g)
	}
	// The floor sits well below every decision threshold.
	wantFloor := m.threshold * math.Pow(10, -DefaultParams().NegligibleDB/10)
	if m.floor != wantFloor {
		t.Fatalf("floor = %v, want %v", m.floor, wantFloor)
	}
}

// TestRangeForCertificates checks the Bounded implementations against their
// contracts: gain strictly below floor beyond the certified distance.
func TestRangeForCertificates(t *testing.T) {
	nf := NearField{Gamma: 6, MinDist: 0.25}
	d, ok := nf.RangeFor(1e-12)
	if !ok {
		t.Fatal("NearField.RangeFor returned !ok for positive floor")
	}
	for _, extra := range []float64{1e-9, 0.1, 3, 500} {
		g := nf.Gain(geom.V(0, 0, 0), geom.V(d+extra, 0, 0))
		if g >= 1e-12 {
			t.Fatalf("NearField gain %v at certified distance %v + %v not below floor", g, d, extra)
		}
	}
	cq := CubeQuantized{Inner: nf}
	dq, ok := cq.RangeFor(1e-12)
	if !ok {
		t.Fatal("CubeQuantized.RangeFor returned !ok")
	}
	if dq <= d {
		t.Fatalf("quantized certificate %v should widen the inner certificate %v", dq, d)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		// Random pair strictly farther apart than the certificate.
		a := geom.V(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		n := math.Sqrt(dir.X*dir.X + dir.Y*dir.Y + dir.Z*dir.Z)
		if n == 0 {
			continue
		}
		scale := (dq + rng.Float64()*50) / n
		b := geom.V(a.X+dir.X*scale, a.Y+dir.Y*scale, a.Z+dir.Z*scale)
		if g := cq.Gain(a, b); g >= 1e-12 {
			t.Fatalf("CubeQuantized gain %v beyond certificate at dist %v", g, a.Dist(b))
		}
	}
	if _, ok := nf.RangeFor(0); ok {
		t.Fatal("RangeFor(0) should return !ok")
	}
	if _, ok := (CubeQuantized{Inner: GainFunc(func(_, _ geom.Vec3) float64 { return 1 })}).RangeFor(1); ok {
		t.Fatal("CubeQuantized over an unbounded inner model should return !ok")
	}
}

// nopHandler discards all indications; the allocation guard uses it so
// recorder bookkeeping does not count against the medium.
type nopHandler struct{}

func (nopHandler) RadioReceive(*frame.Frame) {}
func (nopHandler) RadioCarrier(bool)         {}

// TestSteadyStateAllocationFree is the allocation-regression guard: once
// pools and caches are warm, a full transmit/deliver cycle — including
// carrier transitions at every neighbor — must not allocate.
func TestSteadyStateAllocationFree(t *testing.T) {
	s := sim.New(1)
	m := New(s, DefaultParams())
	var radios []*Radio
	for i := 0; i < 8; i++ {
		radios = append(radios, m.Attach(frame.NodeID(i+1), geom.V(float64(i)*3, 0, 6), nopHandler{}))
	}
	f := &frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 256, Payload: make([]byte, 16)}
	cycle := func() {
		radios[0].Transmit(f)
		s.RunAll()
	}
	if n := statecheck.Mallocs(200, cycle); n != 0 {
		t.Fatalf("steady-state transmit cycle allocates %d times over the runs, want 0", n)
	}
	// Overlapping transmissions (collision path) must also be clean.
	f2 := &frame.Frame{Type: frame.DATA, Src: 8, Dst: 7, DataBytes: 256}
	both := func() {
		radios[0].Transmit(f)
		radios[7].Transmit(f2)
		s.RunAll()
	}
	if n := statecheck.Mallocs(200, both); n != 0 {
		t.Fatalf("steady-state collision cycle allocates %d times over the runs, want 0", n)
	}
}

// TestAvgNeighborsBounded sanity-checks the index statistics: on a spread
// topology the mean neighborhood is a strict subset of the station set.
func TestAvgNeighborsBounded(t *testing.T) {
	s := sim.New(1)
	m := New(s, DefaultParams())
	rng := rand.New(rand.NewSource(9))
	const n = 60
	for i := 0; i < n; i++ {
		m.Attach(frame.NodeID(i+1), geom.V(rng.Float64()*600, rng.Float64()*600, 6), nil)
	}
	avg := m.AvgNeighbors()
	if avg < 1 || avg >= n {
		t.Fatalf("AvgNeighbors = %v, want within [1, %d)", avg, n)
	}
	m.SetExhaustive(true)
	if !m.indexed {
		t.Fatal("exhaustive override should keep index maintenance on")
	}
}

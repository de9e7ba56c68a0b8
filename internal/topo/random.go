package topo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"macaw/internal/core"
	"macaw/internal/geom"
	"macaw/internal/sim"
	"macaw/internal/traffic"
)

// RandomSpec parameterizes a seeded synthetic large-topology generator,
// used by the scaling benchmarks and by cmd/macawtopo -rand. The generated
// layouts are deterministic in Seed: the same spec always produces the same
// layout, so benchmark runs and differential tests are reproducible.
type RandomSpec struct {
	// N is the total number of stations (bases + pads).
	N int
	// Seed drives every random choice.
	Seed int64
	// Clustered places pads around their base station within CellRadiusFt
	// (an office building of nanocells); false scatters pads uniformly
	// over the whole area.
	Clustered bool
	// AreaFt is the side of the square floor plan. Zero derives a side
	// that keeps station density roughly constant as N grows (about one
	// station per 20x20 ft office bay), so larger N means a larger
	// building rather than a denser one — the regime where radio
	// neighborhoods stay local while the station count climbs.
	AreaFt float64
	// PadsPerBase sets the base:pad ratio (default 7 pads per base).
	PadsPerBase int
	// Rate is the per-stream offered load in packets per second (zero
	// selects 8).
	Rate float64
	// CellRadiusFt bounds pad placement around a base when Clustered
	// (zero selects 8, the paper's one-cell hearing distance).
	CellRadiusFt float64
}

func (s RandomSpec) withDefaults() RandomSpec {
	if s.PadsPerBase <= 0 {
		s.PadsPerBase = 7
	}
	if s.Rate == 0 {
		s.Rate = 8
	}
	if s.CellRadiusFt == 0 {
		s.CellRadiusFt = 8
	}
	if s.AreaFt == 0 {
		s.AreaFt = math.Sqrt(float64(s.N) * 400)
	}
	return s
}

// maxExtentFt bounds how far a generated station may lie from the origin
// along a floor axis. Below 2^52 ft every unit cube's index and centre are
// exact in float64, so geom.CubeOf gives each square foot a cube of its
// own; past 2^63 its int conversion saturates and every station lands in
// one cube.
const maxExtentFt = 1 << 52

// Validate reports why Random would refuse spec, or nil. Random refuses
// fewer than 2 stations; a negative or non-finite AreaFt, Rate or
// CellRadiusFt (zero selects the default); a Rate so high that the CBR
// gap rounds to zero, which traffic.Interval refuses; and a floor that,
// with a clustered pad's reach past its edge, spans more than maxExtentFt.
func (s RandomSpec) Validate() error {
	if s.N < 2 {
		return errors.New("topo: Random needs at least 2 stations")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"AreaFt", s.AreaFt}, {"Rate", s.Rate}, {"CellRadiusFt", s.CellRadiusFt}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("topo: Random needs a finite, non-negative %s, got %g", f.name, f.v)
		}
	}
	s = s.withDefaults()
	if _, err := traffic.Interval(s.Rate); err != nil {
		return fmt.Errorf("topo: Random Rate: %w", err)
	}
	extent := s.AreaFt
	if s.Clustered {
		extent += s.CellRadiusFt
	}
	if extent > maxExtentFt {
		return fmt.Errorf("topo: Random floor reaches %g ft, beyond the %g ft that 1-ft cubes quantize exactly", extent, float64(maxExtentFt))
	}
	return nil
}

// Random generates a building-scale layout: base stations on a jittered
// coarse grid at ceiling height, pads at desk height, and one upstream UDP
// stream per pad toward its nearest base. No hearing relations are pinned —
// the geometry is synthetic, not from the paper. It panics with
// Validate's message on a spec that Validate refuses.
func Random(spec RandomSpec) Layout {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	spec = spec.withDefaults()
	rng := rand.New(sim.NewSource(spec.Seed))
	nBases := spec.N / (spec.PadsPerBase + 1)
	if nBases < 1 {
		nBases = 1
	}
	nPads := spec.N - nBases

	l := Layout{
		Name: fmt.Sprintf("rand-n%d-s%d", spec.N, spec.Seed),
		Doc: fmt.Sprintf("seeded synthetic topology: %d bases, %d pads over %.0fx%.0f ft",
			nBases, nPads, spec.AreaFt, spec.AreaFt),
	}

	// Bases on a jittered √nBases × √nBases grid, so coverage is roughly
	// uniform no matter the seed.
	side := int(math.Ceil(math.Sqrt(float64(nBases))))
	pitch := spec.AreaFt / float64(side)
	basePos := make([]geom.Vec3, 0, nBases)
	l.Stations = make([]StationSpec, 0, spec.N)
	l.Streams = make([]StreamSpec, 0, nPads)
	for i := 0; i < nBases; i++ {
		cx := (float64(i%side) + 0.5) * pitch
		cy := (float64(i/side) + 0.5) * pitch
		jitter := pitch * 0.2
		p := geom.V(
			cx+(rng.Float64()*2-1)*jitter,
			cy+(rng.Float64()*2-1)*jitter,
			12)
		basePos = append(basePos, p)
		l.Stations = append(l.Stations, StationSpec{
			Name: "B" + strconv.Itoa(i+1), Pos: p, Base: true,
		})
	}

	for i := 0; i < nPads; i++ {
		var p geom.Vec3
		if spec.Clustered {
			// Around a (seeded) random base, within the cell radius.
			b := basePos[rng.Intn(nBases)]
			ang := rng.Float64() * 2 * math.Pi
			rad := spec.CellRadiusFt * math.Sqrt(rng.Float64())
			p = geom.V(b.X+rad*math.Cos(ang), b.Y+rad*math.Sin(ang), 6)
		} else {
			p = geom.V(rng.Float64()*spec.AreaFt, rng.Float64()*spec.AreaFt, 6)
		}
		name := "P" + strconv.Itoa(i+1)
		l.Stations = append(l.Stations, StationSpec{Name: name, Pos: p})

		// One upstream stream per pad toward the nearest base. Start
		// times are staggered over the first second so the whole
		// building does not contend in lockstep.
		best := nearestBase(basePos, side, pitch, p)
		l.Streams = append(l.Streams, StreamSpec{
			From: name, To: l.Stations[best].Name,
			Kind: core.UDP, Rate: spec.Rate,
			StartSec: rng.Float64(),
		})
	}
	return l
}

// nearestBase returns the index of the base nearest p: exactly what a scan
// over all bases in index order picks, the least Vec3.Dist and the lowest
// index on a tie. It needs base i to lie inside grid cell (i%side, i/side)
// of the given pitch, as Random's jitter (under half a pitch) guarantees.
// A base in a cell r rings out from p's cell is then more than r-1 pitches
// from p, so the search visits rings outward and stops at the first one
// that cannot match the best distance found.
func nearestBase(bases []geom.Vec3, side int, pitch float64, p geom.Vec3) int {
	px, py := int(math.Floor(p.X/pitch)), int(math.Floor(p.Y/pitch))
	best, bestD := -1, math.Inf(1)
	visit := func(cx, cy int) {
		bi := cy*side + cx
		if cx < 0 || cx >= side || cy < 0 || bi >= len(bases) {
			return
		}
		if d := bases[bi].Dist(p); d < bestD || d == bestD && bi < best {
			best, bestD = bi, d
		}
	}
	visit(px, py)
	for r := 1; best < 0 || float64(r-1)*pitch < bestD; r++ {
		for cx := px - r; cx <= px+r; cx++ {
			visit(cx, py-r)
			visit(cx, py+r)
		}
		for cy := py - r + 1; cy < py+r; cy++ {
			visit(px-r, cy)
			visit(px+r, cy)
		}
	}
	return best
}

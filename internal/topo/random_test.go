package topo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"macaw/internal/core"
	"macaw/internal/geom"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
)

func TestRandomDeterministic(t *testing.T) {
	spec := RandomSpec{N: 40, Seed: 11, Clustered: true}
	a, b := Random(spec), Random(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different layouts")
	}
	c := Random(RandomSpec{N: 40, Seed: 12, Clustered: true})
	if reflect.DeepEqual(a.Stations, c.Stations) {
		t.Fatal("different seeds produced identical station placement")
	}
}

func TestRandomShape(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		l := Random(RandomSpec{N: 50, Seed: 3, Clustered: clustered})
		if len(l.Stations) != 50 {
			t.Fatalf("clustered=%v: %d stations, want 50", clustered, len(l.Stations))
		}
		bases := 0
		for _, s := range l.Stations {
			if s.Base {
				bases++
			}
		}
		if bases != 50/8 {
			t.Fatalf("clustered=%v: %d bases, want %d", clustered, bases, 50/8)
		}
		if len(l.Streams) != 50-bases {
			t.Fatalf("clustered=%v: %d streams, want one per pad (%d)",
				clustered, len(l.Streams), 50-bases)
		}
		for _, st := range l.Streams {
			if st.Rate <= 0 {
				t.Fatalf("stream %s-%s has rate %v", st.From, st.To, st.Rate)
			}
		}
	}
}

func TestRandomBuilds(t *testing.T) {
	n := core.NewNetwork(1)
	l := Random(RandomSpec{N: 30, Seed: 7, Clustered: true})
	if err := l.Build(n, core.MACAWFactory(macaw.Options{})); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := len(n.Stations()); got != 30 {
		t.Fatalf("network has %d stations, want 30", got)
	}
	// A clustered layout at this density should leave the medium's
	// neighborhood index active and non-degenerate.
	if !n.Medium.IndexEnabled() {
		t.Fatal("index disabled under default params")
	}
	n.Sim.Run(sim.FromSeconds(2))
}

// bruteNearest is the reference search: every base in index order, the
// first of the least distances.
func bruteNearest(bases []geom.Vec3, p geom.Vec3) int {
	best, bestD := 0, math.Inf(1)
	for bi, bp := range bases {
		if d := bp.Dist(p); d < bestD {
			best, bestD = bi, d
		}
	}
	return best
}

// TestRandomNearestBaseMatchesBruteForce checks every pad's stream target
// in generated layouts against a scan over all bases, for clustered and
// uniform layouts, several seeds, and N from 2 (a single base) to 20 000.
func TestRandomNearestBaseMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 3, 8, 9, 17, 100, 1000, 20000} {
		for _, clustered := range []bool{true, false} {
			seeds := []int64{1, 2, 3}
			if n == 20000 {
				seeds = seeds[:1]
			}
			for _, seed := range seeds {
				l := Random(RandomSpec{N: n, Seed: seed, Clustered: clustered})
				var bases []geom.Vec3
				pos := make(map[string]geom.Vec3)
				for _, s := range l.Stations {
					pos[s.Name] = s.Pos
					if s.Base {
						bases = append(bases, s.Pos)
					}
				}
				if n < 9 && len(bases) != 1 {
					t.Fatalf("N=%d: %d bases, want 1", n, len(bases))
				}
				for _, s := range l.Streams {
					if want := fmt.Sprintf("B%d", bruteNearest(bases, pos[s.From])+1); s.To != want {
						t.Fatalf("N=%d clustered=%t seed=%d: %s streams to %s, brute force picks %s",
							n, clustered, seed, s.From, s.To, want)
					}
				}
			}
		}
	}
}

// TestNearestBaseTies puts bases at the centres of a lattice of cells and
// probes points equidistant from two or four of them, on cell edges, and
// outside the lattice: the lowest index must win every tie.
func TestNearestBaseTies(t *testing.T) {
	const side, pitch = 10, 10.0
	var bases []geom.Vec3
	for i := 0; i < 95; i++ { // the last row is partly filled
		bases = append(bases, geom.V((float64(i%side)+0.5)*pitch, (float64(i/side)+0.5)*pitch, 12))
	}
	var probes []geom.Vec3
	for x := -40; x <= 140; x += 5 {
		for y := -40; y <= 140; y += 5 {
			probes = append(probes, geom.V(float64(x), float64(y), 6))
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		probes = append(probes, geom.V(r.Float64()*2000-1000, r.Float64()*2000-1000, 6))
	}
	for _, p := range probes {
		if got, want := nearestBase(bases, side, pitch, p), bruteNearest(bases, p); got != want {
			t.Fatalf("nearestBase(%v) = %d, brute force %d", p, got, want)
		}
	}
}

// BenchmarkRandomLayout generates the bench city's layout and its
// blueprint and reports the cost per station.
func BenchmarkRandomLayout(b *testing.B) {
	const stations = 10000
	f := core.MACAWFactory(macaw.DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := Random(RandomSpec{N: stations, Clustered: true, AreaFt: 12000, Seed: 1})
		if _, err := l.Blueprint(f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stations), "ns/station")
}

// TestRandomRefusesBadSpecs pins the specs Random fails closed on. Each
// reproduced a hang, a panic deep in the simulator or a degenerate layout
// before Validate: a NaN or infinite area left nearestBase looking for a
// base forever, a NaN, infinite or huge rate panicked in the CBR source's
// phase draw, and a 1e300 ft floor put every station in one quantization
// cube. Random must panic with Validate's message, which names the field.
func TestRandomRefusesBadSpecs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		spec RandomSpec
		want string
	}{
		{RandomSpec{N: 1}, "at least 2 stations"},
		{RandomSpec{N: 50, AreaFt: nan}, "AreaFt, got NaN"},
		{RandomSpec{N: 50, AreaFt: inf}, "AreaFt, got +Inf"},
		{RandomSpec{N: 50, AreaFt: -inf}, "AreaFt, got -Inf"},
		{RandomSpec{N: 50, AreaFt: -1}, "AreaFt, got -1"},
		{RandomSpec{N: 50, Rate: nan}, "Rate, got NaN"},
		{RandomSpec{N: 50, Rate: inf}, "Rate, got +Inf"},
		{RandomSpec{N: 50, Rate: -8}, "Rate, got -8"},
		{RandomSpec{N: 50, Rate: 1e12}, "zero gap between packets"},
		{RandomSpec{N: 50, Clustered: true, CellRadiusFt: nan}, "CellRadiusFt, got NaN"},
		{RandomSpec{N: 50, Clustered: true, CellRadiusFt: inf}, "CellRadiusFt, got +Inf"},
		{RandomSpec{N: 50, Clustered: true, CellRadiusFt: -8}, "CellRadiusFt, got -8"},
		{RandomSpec{N: 50, AreaFt: 1e300}, "1-ft cubes quantize exactly"},
		{RandomSpec{N: 50, AreaFt: maxExtentFt, Clustered: true}, "1-ft cubes quantize exactly"},
		{RandomSpec{N: 50, Clustered: true, CellRadiusFt: 1e300}, "1-ft cubes quantize exactly"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Validate(%+v) = %v, want an error containing %q", c.spec, err, c.want)
		}
		func() {
			defer func() {
				if p := recover(); p != err.Error() {
					t.Fatalf("Random(%+v) panicked with %v, want %q", c.spec, p, err)
				}
			}()
			Random(c.spec)
		}()
	}
	// The limits themselves are accepted.
	for _, spec := range []RandomSpec{
		{N: 2, AreaFt: maxExtentFt},
		{N: 2, Clustered: true, AreaFt: maxExtentFt - 8},
		{N: 2, Rate: float64(sim.Second)},
	} {
		if err := spec.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", spec, err)
		}
		Random(spec)
	}
}

// Command macawtopo inspects the paper's network configurations: station
// placement, the realized hearing graph, and the declared streams. It also
// generates seeded synthetic large topologies for scaling studies.
//
// Usage:
//
//	macawtopo [-figure figure1..figure11]
//	macawtopo -rand N [-seed N] [-mode uniform|cluster] [-area FT] [-rate PPS]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"macaw/internal/core"
	"macaw/internal/topo"
)

func main() {
	figure := flag.String("figure", "", "figure to inspect (default: all)")
	randN := flag.Int("rand", 0, "generate a seeded random topology with N stations instead of a figure")
	seed := flag.Int64("seed", 1, "random-topology seed")
	mode := flag.String("mode", "cluster", "random placement: uniform or cluster")
	area := flag.Float64("area", 0, "random-topology floor side in feet (0 = density-preserving default)")
	rate := flag.Float64("rate", 0, "random-topology per-stream offered load in pps (0 = default)")
	flag.Parse()

	if *randN > 0 {
		spec, err := randomSpec(*randN, *seed, *mode, *area, *rate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macawtopo: %v\n", err)
			os.Exit(2)
		}
		showRandom(topo.Random(spec))
		return
	}

	layouts := topo.All()
	var names []string
	for name := range layouts {
		names = append(names, name)
	}
	sort.Strings(names)

	if *figure != "" {
		if _, ok := layouts[*figure]; !ok {
			fmt.Fprintf(os.Stderr, "macawtopo: unknown figure %q (have %v)\n", *figure, names)
			os.Exit(2)
		}
		names = []string{*figure}
	}

	for _, name := range names {
		show(layouts[name])
	}
}

// randomSpec turns the -rand flags into a generator spec, or reports the
// flag that topo.Random would refuse.
func randomSpec(n int, seed int64, mode string, area, rate float64) (topo.RandomSpec, error) {
	if mode != "uniform" && mode != "cluster" {
		return topo.RandomSpec{}, fmt.Errorf("unknown -mode %q (uniform or cluster)", mode)
	}
	spec := topo.RandomSpec{N: n, Seed: seed, Clustered: mode == "cluster", AreaFt: area, Rate: rate}
	if err := spec.Validate(); err != nil {
		return topo.RandomSpec{}, fmt.Errorf("-rand %d -area %g -rate %g: %w", n, area, rate, err)
	}
	return spec, nil
}

// showRandom summarizes a generated topology: station/stream counts and the
// hearing-degree distribution, the quantity the medium's neighborhood index
// scales with. Full per-station listings would be unreadable at N=1000.
func showRandom(l topo.Layout) {
	fmt.Printf("%s — %s\n", l.Name, l.Doc)
	n := core.NewNetwork(1)
	if err := l.Build(n, core.MACAFactory()); err != nil {
		fmt.Printf("  BUILD ERROR: %v\n", err)
		return
	}
	bases := 0
	for _, s := range l.Stations {
		if s.Base {
			bases++
		}
	}
	fmt.Printf("  stations: %d (%d bases, %d pads), streams: %d\n",
		len(l.Stations), bases, len(l.Stations)-bases, len(l.Streams))
	g := n.HearingGraph()
	minDeg, maxDeg, sum := len(l.Stations), 0, 0
	for _, heard := range g {
		d := len(heard)
		sum += d
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Printf("  hearing degree: min %d, mean %.1f, max %d\n",
		minDeg, float64(sum)/float64(len(g)), maxDeg)
	fmt.Printf("  medium neighborhood: index=%v, avg %.1f of %d radios\n",
		n.Medium.IndexEnabled(), n.Medium.AvgNeighbors(), len(l.Stations))
}

func show(l topo.Layout) {
	fmt.Printf("%s — %s\n", l.Name, l.Doc)
	n := core.NewNetwork(1)
	if err := l.Build(n, core.MACAFactory()); err != nil {
		fmt.Printf("  BUILD ERROR: %v\n", err)
		return
	}
	fmt.Println("  stations:")
	for _, s := range l.Stations {
		kind := "pad "
		if s.Base {
			kind = "base"
		}
		fmt.Printf("    %-4s %-4s at %v\n", kind, s.Name, s.Pos)
	}
	if len(l.Streams) > 0 {
		fmt.Println("  streams:")
		for _, s := range l.Streams {
			start := ""
			if s.StartSec > 0 {
				start = fmt.Sprintf(" (starts at %gs)", s.StartSec)
			}
			fmt.Printf("    %s -> %s  %v %g pps%s\n", s.From, s.To, s.Kind, s.Rate, start)
		}
	}
	fmt.Println("  hearing graph:")
	g := n.HearingGraph()
	var stationNames []string
	for name := range g {
		stationNames = append(stationNames, name)
	}
	sort.Strings(stationNames)
	for _, name := range stationNames {
		fmt.Printf("    %-4s hears %v\n", name, g[name])
	}
	fmt.Println()
}

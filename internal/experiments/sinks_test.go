package experiments

import (
	"fmt"
	"testing"

	"macaw/internal/core"
	"macaw/internal/geom"
	"macaw/internal/mac/macaw"
	"macaw/internal/metrics"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// twoComponentLayout builds two complete cells far beyond the interaction
// cutoff: two causally independent radio components in one building.
func twoComponentLayout() topo.Layout {
	l := topo.Layout{Name: "two-components", Doc: "two cells beyond the interaction cutoff"}
	for i, x := range []float64{0, 1000} {
		p := fmt.Sprintf("c%d", i)
		l.Stations = append(l.Stations,
			topo.StationSpec{Name: p + "B", Pos: geom.V(x, 0, 12), Base: true},
			topo.StationSpec{Name: p + "P1", Pos: geom.V(x+4, 3, 6)},
			topo.StationSpec{Name: p + "P2", Pos: geom.V(x+2, 3, 6)},
		)
		l.Streams = append(l.Streams,
			topo.StreamSpec{From: p + "P1", To: p + "B", Kind: core.UDP, Rate: 24},
			topo.StreamSpec{From: p + "P2", To: p + "B", Kind: core.UDP, Rate: 24},
		)
		l.Relations = append(l.Relations, topo.Relation{A: p + "P1", B: p + "B", Hears: true})
	}
	// The components must not hear each other or the partition is one cell.
	l.Relations = append(l.Relations, topo.Relation{A: "c0B", B: "c1B", Hears: false})
	return l
}

// TestSerialSinksKeepPlainLabels: every run executes on one monolithic
// network and records under its plain run label, even when the layout
// holds more than one radio component.
func TestSerialSinksKeepPlainLabels(t *testing.T) {
	cfg := RunConfig{Total: 4 * sim.Second, Warmup: sim.Second, Seed: 11}
	cfg.Metrics = metrics.NewSink()
	runLayout(cfg.ForTable("sinks"), "macaw", twoComponentLayout(), core.MACAWFactory(macaw.DefaultOptions()))
	if got := cfg.Metrics.Labels(); fmt.Sprint(got) != fmt.Sprint([]string{"sinks/macaw"}) {
		t.Fatalf("serial sink labels = %v, want the plain run label", got)
	}
}

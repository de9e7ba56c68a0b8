package experiments

import (
	"macaw/internal/core"
	"macaw/internal/fault"
	"macaw/internal/geom"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
)

// ChaosTable measures robustness retention: how much throughput and fairness
// MACA and MACAW keep when one fault class at a time is injected into a
// two-cell network, relative to the same network running clean. Every run is
// swept by the liveness watchdog, so a wedged FSM or retry loop aborts the
// table instead of quietly deflating a number.
//
// Rows, per fault class:
//
//	pps@class    total carried load (packets/s)
//	keep@class   percent of the baseline class's carried load retained
//	fair@class   Jain fairness index across the four streams
//	events@class fault events injected (crashes+restarts+links+moves+bursts)
func ChaosTable(cfg RunConfig) Table {
	classes := chaosFaults(cfg)
	protos := []struct {
		name string
		f    func() core.MACFactory
	}{
		{"MACA", func() core.MACFactory { return core.MACAFactory() }},
		{"MACAW", func() core.MACFactory { return core.MACAWFactory(macaw.DefaultOptions()) }},
	}

	type point struct {
		pps, fair float64
		events    int
	}
	// One future per protocol x fault class, all submitted before any wait,
	// so the table is byte-identical at every -jobs value.
	futs := make([][]*future[point], len(protos))
	for pi, p := range protos {
		futs[pi] = make([]*future[point], len(classes))
		for ci, c := range classes {
			name, mk := p.name+"/"+c.name, p.f
			futs[pi][ci] = goFuture(cfg, func() point {
				n := cfg.spares.Network(cfg.Seed)
				rc := cfg.instrument(name, n)
				in := buildChaosCell(n, mk(), c)
				res := rc.run(n)
				fc := in.Counters()
				return point{
					pps:  res.TotalPPS(),
					fair: res.Fairness(),
					events: fc.Crashes + fc.Restarts + fc.LinkFaults +
						fc.Moves + fc.BurstEpisodes,
				}
			})
		}
	}

	var rows []string
	for _, metric := range []string{"pps", "keep", "fair", "events"} {
		for _, c := range classes {
			rows = append(rows, metric+"@"+c.name)
		}
	}
	var cols []Column
	for pi, p := range protos {
		pts := make([]point, len(classes))
		for ci := range classes {
			pts[ci] = futs[pi][ci].wait()
		}
		var res core.Results
		for ci, c := range classes {
			res.Streams = append(res.Streams,
				core.StreamResult{Name: "pps@" + c.name, PPS: pts[ci].pps})
		}
		for ci, c := range classes {
			keep := 0.0
			if pts[0].pps > 0 {
				keep = 100 * pts[ci].pps / pts[0].pps
			}
			res.Streams = append(res.Streams,
				core.StreamResult{Name: "keep@" + c.name, PPS: keep})
		}
		for ci, c := range classes {
			res.Streams = append(res.Streams,
				core.StreamResult{Name: "fair@" + c.name, PPS: pts[ci].fair})
		}
		for ci, c := range classes {
			res.Streams = append(res.Streams,
				core.StreamResult{Name: "events@" + c.name, PPS: float64(pts[ci].events)})
		}
		cols = append(cols, Column{Name: p.name, Results: res})
	}
	return Table{
		ID: "chaos", Figure: "two cells, 4 streams",
		Title:   "robustness under injected faults: throughput/fairness retention, MACA vs MACAW",
		Streams: rows,
		Columns: cols,
		Notes:   "keep@ rows are percent of the protocol's own baseline carried load; every run is watchdog-swept (a wedge panics rather than deflating a row)",
	}
}

// chaosFault is one fault class of the robustness table.
type chaosFault struct {
	name  string
	apply func(in *fault.Injector)
}

// chaosFaults lists the robustness table's fault classes, clean baseline
// first. Crash downtime and walks start a quarter of the way into the
// measured span.
func chaosFaults(cfg RunConfig) []chaosFault {
	span := sim.Duration(cfg.Total - cfg.Warmup)
	down := span / 16
	if down < fault.MinDowntime {
		down = fault.MinDowntime
	}
	return []chaosFault{
		{"baseline", func(in *fault.Injector) {}},
		{"burst", func(in *fault.Injector) {
			in.BurstChannel(0, 0.85, 200*sim.Millisecond, 40*sim.Millisecond)
		}},
		{"asym", func(in *fault.Injector) {
			in.AsymmetricLoss("P1", "B1", 0.6)
		}},
		{"crash", func(in *fault.Injector) {
			at := cfg.Warmup + sim.Time(span/4)
			in.CrashRestart("B1", at, at+sim.Time(down))
		}},
		{"walk", func(in *fault.Injector) {
			in.Walk("P2", cfg.Warmup+sim.Time(span/4), span/16,
				geom.V(7, 3, 6), geom.V(10, 3, 6), geom.V(7, 3, 6), geom.V(4, 3, 6))
		}},
	}
}

// buildChaosCell adds the robustness table's two cells and four streams to
// n, injects the fault class, and arms the liveness watchdog. It returns
// the injector, whose counters fill the events@ rows.
func buildChaosCell(n *core.Network, f core.MACFactory, c chaosFault) *fault.Injector {
	b1 := n.AddStation("B1", geom.V(0, 0, 12), f)
	b2 := n.AddStation("B2", geom.V(14, 0, 12), f)
	p1 := n.AddStation("P1", geom.V(-4, 3, 6), f)
	p2 := n.AddStation("P2", geom.V(4, 3, 6), f)
	p3 := n.AddStation("P3", geom.V(12, 3, 6), f)
	p4 := n.AddStation("P4", geom.V(16, 3, 6), f)
	n.AddStream(p1, b1, core.UDP, 20)
	n.AddStream(b1, p2, core.UDP, 20)
	n.AddStream(p3, b2, core.UDP, 20)
	n.AddStream(b2, p4, core.UDP, 20)
	in := fault.NewInjector(n)
	c.apply(in)
	w := fault.NewWatchdog(n)
	w.MaxQueue = 256
	w.Start(0)
	return in
}

// ChaosGenerator wraps ChaosTable as a named generator for the -chaos CLI
// mode. It is deliberately not part of Extensions(), so the default table
// set — and its byte-exact output — is unchanged when no faults are asked
// for.
func ChaosGenerator() Generator {
	return Generator{ID: "chaos", Name: "robustness under injected faults", Run: ChaosTable}
}

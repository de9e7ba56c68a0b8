package experiments

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/geom"
	"macaw/internal/mac/macaw"
	"macaw/internal/phy"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// Factory helpers for the protocol variants the tables compare.

// singlePolicy builds a single-counter policy factory.
func singlePolicy(strat backoff.Strategy, copyOverheard bool) func() backoff.Policy {
	return func() backoff.Policy { return backoff.NewSingle(strat, copyOverheard) }
}

// perDestPolicy builds a per-destination policy factory.
func perDestPolicy(strat backoff.Strategy) func() backoff.Policy {
	return func() backoff.Policy { return backoff.NewPerDest(strat) }
}

func variant(opt macaw.Options, pol func() backoff.Policy) core.MACFactory {
	return core.MACAWFactoryWith(opt, pol)
}

// Table1 reproduces Table 1: the Figure 2 cell under BEB with and without
// backoff copying. "When using the BEB algorithm eventually a single pad
// transmits at channel capacity and the other pad is completely backed off."
func Table1(cfg RunConfig) Table {
	l := topo.Figure2()
	basic := macaw.Options{Exchange: macaw.Basic}
	beb := cfg.goRun("BEB", l, variant(basic, singlePolicy(backoff.NewBEB(), false)))
	bebCopy := cfg.goRun("BEB+copy", l, variant(basic, singlePolicy(backoff.NewBEB(), true)))
	return Table{
		ID: "table1", Figure: l.Name,
		Title:   "throughput of two saturating pads under BEB, without and with backoff copying",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "BEB", Paper: map[string]float64{"P1-B": 48.5, "P2-B": 0}, Results: beb.wait()},
			{Name: "BEB+copy", Paper: map[string]float64{"P1-B": 23.82, "P2-B": 23.32}, Results: bebCopy.wait()},
		},
		Notes: "which pad captures the channel under plain BEB is a coin flip; compare the max/min split, not the row labels",
	}
}

// Table2 reproduces Table 2: six saturating pads (Figure 3) under BEB+copy
// vs MILD+copy.
func Table2(cfg RunConfig) Table {
	l := topo.Figure3()
	basic := macaw.Options{Exchange: macaw.Basic}
	beb := cfg.goRun("BEB copy", l, variant(basic, singlePolicy(backoff.NewBEB(), true)))
	mild := cfg.goRun("MILD copy", l, variant(basic, singlePolicy(backoff.NewMILD(), true)))
	return Table{
		ID: "table2", Figure: l.Name,
		Title:   "six-pad cell: BEB+copy vs MILD+copy",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "BEB copy", Paper: map[string]float64{
				"P1-B": 2.96, "P2-B": 3.01, "P3-B": 2.84, "P4-B": 2.93, "P5-B": 3.00, "P6-B": 3.05,
			}, Results: beb.wait()},
			{Name: "MILD copy", Paper: map[string]float64{
				"P1-B": 6.10, "P2-B": 6.18, "P3-B": 6.05, "P4-B": 6.12, "P5-B": 6.14, "P6-B": 6.09,
			}, Results: mild.wait()},
		},
	}
}

// Table3 reproduces Table 3: the Figure 4 cell with a single FIFO at each
// station (bandwidth allocated to stations) vs one queue per stream
// (bandwidth allocated to streams).
func Table3(cfg RunConfig) Table {
	l := topo.Figure4()
	single := cfg.goRun("Single Stream", l, variant(
		macaw.Options{Exchange: macaw.Basic, PerStream: false},
		singlePolicy(backoff.NewMILD(), true)))
	// §3.2's multiple-stream model keeps a single backoff counter ("Since
	// there is a single base station backoff counter, all streams have an
	// equal chance of being chosen"); per-stream counters arrive in §3.4.
	multi := cfg.goRun("Multiple Stream", l, variant(
		macaw.Options{Exchange: macaw.Basic, PerStream: true},
		singlePolicy(backoff.NewMILD(), true)))
	return Table{
		ID: "table3", Figure: l.Name,
		Title:   "single FIFO vs per-stream queues",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "Single Stream", Paper: map[string]float64{
				"B-P1": 11.42, "B-P2": 12.34, "P3-B": 22.74,
			}, Results: single.wait()},
			{Name: "Multiple Stream", Paper: map[string]float64{
				"B-P1": 15.07, "B-P2": 15.82, "P3-B": 15.64,
			}, Results: multi.wait()},
		},
	}
}

// table4Rates are the paper's noise levels.
var table4Rates = []float64{0, 0.001, 0.01, 0.1}

// Table4 reproduces Table 4: one TCP stream from a pad to its base under
// intermittent noise, with and without the link-level ACK.
func Table4(cfg RunConfig) Table {
	run := func(name string, exchange macaw.Exchange, p float64) *future[float64] {
		return goFuture(cfg, func() float64 {
			n := cfg.spares.Network(cfg.Seed)
			rc := cfg.instrument(fmt.Sprintf("%s/p=%g", name, p), n)
			f := variant(macaw.Options{Exchange: exchange}, singlePolicy(backoff.NewMILD(), true))
			pad := n.AddStation("P", geom.V(-4, 0, 6), f)
			base := n.AddStation("B", geom.V(0, 0, 12), f)
			n.AddStream(pad, base, core.TCP, 64)
			if p > 0 {
				n.Medium.SetNoise(phy.DestLoss{P: p})
			}
			res := rc.run(n)
			return res.PPS("P-B")
		})
	}
	mkFutures := func(name string, exchange macaw.Exchange) []*future[float64] {
		futs := make([]*future[float64], len(table4Rates))
		for i, p := range table4Rates {
			futs[i] = run(name, exchange, p)
		}
		return futs
	}
	// Submit every run before collecting the first, so a parallel runner
	// overlaps all eight.
	basicF := mkFutures("RTS-CTS-DATA", macaw.Basic)
	ackedF := mkFutures("RTS-CTS-DATA-ACK", macaw.WithACK)
	collect := func(futs []*future[float64]) core.Results {
		var r core.Results
		for i, p := range table4Rates {
			r.Streams = append(r.Streams, core.StreamResult{
				Name: fmt.Sprintf("p=%g", p),
				PPS:  futs[i].wait(),
			})
		}
		return r
	}
	rows := []string{"p=0", "p=0.001", "p=0.01", "p=0.1"}
	return Table{
		ID: "table4", Figure: "single cell",
		Title:   "TCP throughput vs packet error rate, without and with link-level ACK",
		Streams: rows,
		Columns: []Column{
			{Name: "RTS-CTS-DATA", Paper: map[string]float64{
				"p=0": 40.41, "p=0.001": 36.58, "p=0.01": 16.65, "p=0.1": 2.48,
			}, Results: collect(basicF)},
			{Name: "RTS-CTS-DATA-ACK", Paper: map[string]float64{
				"p=0": 36.76, "p=0.001": 36.67, "p=0.01": 35.52, "p=0.1": 9.93,
			}, Results: collect(ackedF)},
		},
		Notes: "rows are packet error rates; absolute rates differ (this TCP acks every packet over the same MAC), the collapse-without-ACK shape is the claim",
	}
}

// Table5 reproduces Table 5: the Figure 5 exposed-terminal cells with and
// without the DS packet.
func Table5(cfg RunConfig) Table {
	l := topo.Figure5()
	pol := singlePolicy(backoff.NewMILD(), true)
	noDS := cfg.goRun("RTS-CTS-DATA-ACK", l, variant(macaw.Options{Exchange: macaw.WithACK, PerStream: true}, pol))
	ds := cfg.goRun("RTS-CTS-DS-DATA-ACK", l, variant(macaw.Options{Exchange: macaw.Full, PerStream: true}, pol))
	return Table{
		ID: "table5", Figure: l.Name,
		Title:   "exposed terminals without and with the DS packet",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "RTS-CTS-DATA-ACK", Paper: map[string]float64{
				"P1-B1": 46.72, "P2-B2": 0,
			}, Results: noDS.wait()},
			{Name: "RTS-CTS-DS-DATA-ACK", Paper: map[string]float64{
				"P1-B1": 23.35, "P2-B2": 22.63,
			}, Results: ds.wait()},
		},
		Notes: "which exposed pad starves without DS is a coin flip; compare the split",
	}
}

// Table6 reproduces Table 6: the Figure 6 cells without and with RRTS.
func Table6(cfg RunConfig) Table {
	l := topo.Figure6()
	pol := singlePolicy(backoff.NewMILD(), true)
	noRRTS := cfg.goRun("no RRTS", l, variant(macaw.Options{Exchange: macaw.Full, PerStream: true, RRTS: false}, pol))
	rrts := cfg.goRun("RRTS", l, variant(macaw.Options{Exchange: macaw.Full, PerStream: true, RRTS: true}, pol))
	return Table{
		ID: "table6", Figure: l.Name,
		Title:   "receiver-side contention without and with RRTS",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "no RRTS", Paper: map[string]float64{
				"B1-P1": 0, "B2-P2": 42.87,
			}, Results: noRRTS.wait()},
			{Name: "RRTS", Paper: map[string]float64{
				"B1-P1": 20.39, "B2-P2": 20.53,
			}, Results: rrts.wait()},
		},
		Notes: "the paper's 'P2-B2' row label is read as the B2->P2 stream (Figure 6 is Figure 5 with both flows reversed); the no-RRTS column is bistable across seeds — about half reproduce the paper's one-sided starvation (0/46), the rest degrade mutually — while RRTS removes the starvation basin entirely",
	}
}

// Table7 reproduces Table 7: the Figure 7 configuration that full MACAW
// does not solve — B1's RTS packets are jammed at P1 by P2's data.
func Table7(cfg RunConfig) Table {
	l := topo.Figure7()
	res := cfg.goRun("MACAW", l, core.MACAWFactory(macaw.DefaultOptions()))
	return Table{
		ID: "table7", Figure: l.Name,
		Title:   "the unsolved two-cell configuration under full MACAW",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "MACAW", Paper: map[string]float64{"B1-P1": 0}, Results: res.wait()},
		},
		Notes: "the paper's table body for the P2-B2 row is not in the source text; the claim is B1-P1 starves while P2-B2 runs at capacity",
	}
}

// Table8 reproduces Table 8: the Figure 9 cell where pad P1 is switched
// off, under a single shared backoff counter vs per-destination backoff.
func Table8(cfg RunConfig) Table {
	l := topo.Figure9()
	powerOff := func(n *core.Network) {
		n.PowerOff(n.Station("P1"), cfg.Warmup/2)
	}
	single := cfg.goRun("Single backoff", l, variant(
		macaw.Options{Exchange: macaw.Full, PerStream: true, RRTS: true},
		singlePolicy(backoff.NewMILD(), true)), powerOff)
	perDest := cfg.goRun("Per-destination backoff", l, variant(
		macaw.Options{Exchange: macaw.Full, PerStream: true, RRTS: true},
		perDestPolicy(backoff.NewMILD())), powerOff)
	rows := []string{"B-P2", "P2-B", "B-P3", "P3-B"}
	return Table{
		ID: "table8", Figure: l.Name,
		Title:   "dead-pad poisoning: single shared backoff vs per-destination backoff",
		Streams: rows,
		Columns: []Column{
			{Name: "Single backoff", Paper: map[string]float64{
				"B-P2": 3.79, "P2-B": 3.78, "B-P3": 3.62, "P3-B": 3.43,
			}, Results: single.wait()},
			{Name: "Per-destination backoff", Results: perDest.wait()},
		},
		Notes: "the paper's per-destination column is truncated in the source text; its claim is that total throughput is no longer affected by the unresponsive pad. P1 powers off at warmup/2.",
	}
}

// Table9 reproduces Table 9: single-stream overhead of MACAW's longer
// exchange relative to MACA.
func Table9(cfg RunConfig) Table {
	run := func(name string, f core.MACFactory) *future[core.Results] {
		return goFuture(cfg, func() core.Results {
			n := cfg.spares.Network(cfg.Seed)
			rc := cfg.instrument(name, n)
			pad := n.AddStation("P", geom.V(-4, 0, 6), f)
			base := n.AddStation("B", geom.V(0, 0, 12), f)
			n.AddStream(pad, base, core.UDP, 64)
			return rc.run(n)
		})
	}
	maca := run("MACA", core.MACAFactory())
	macawRes := run("MACAW", core.MACAWFactory(macaw.DefaultOptions()))
	return Table{
		ID: "table9", Figure: "single cell",
		Title:   "single unicast stream: MACA vs MACAW overhead",
		Streams: []string{"P-B"},
		Columns: []Column{
			{Name: "MACA (RTS-CTS-DATA)", Paper: map[string]float64{"P-B": 53.04}, Results: maca.wait()},
			{Name: "MACAW (RTS-CTS-DS-DATA-ACK)", Paper: map[string]float64{"P-B": 49.07}, Results: macawRes.wait()},
		},
	}
}

// Table10 reproduces Table 10: the three-cell Figure 10 scenario under
// MACA and MACAW.
func Table10(cfg RunConfig) Table {
	l := topo.Figure10()
	macaRes := cfg.goRun("MACA", l, core.MACAFactory())
	macawRes := cfg.goRun("MACAW", l, core.MACAWFactory(macaw.DefaultOptions()))
	return Table{
		ID: "table10", Figure: l.Name,
		Title:   "three cells, eleven streams: MACA vs MACAW",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "MACA", Paper: map[string]float64{
				"P1-B1": 9.61, "P2-B1": 2.45, "P3-B1": 3.70, "P4-B1": 0.46,
				"B1-P1": 0.12, "B1-P2": 0.01, "B1-P3": 0.20, "B1-P4": 0.66,
				"P5-B2": 2.24, "B2-P5": 3.21, "P6-B3": 28.40,
			}, Results: macaRes.wait()},
			{Name: "MACAW", Paper: map[string]float64{
				"P1-B1": 3.45, "P2-B1": 3.84, "P3-B1": 3.27, "P4-B1": 3.80,
				"B1-P1": 3.83, "B1-P2": 3.72, "B1-P3": 3.72, "B1-P4": 3.59,
				"P5-B2": 7.82, "B2-P5": 7.80, "P6-B3": 25.16,
			}, Results: macawRes.wait()},
		},
	}
}

// Table11 reproduces Table 11: the four-cell office scenario with a noise
// source in the open area and a pad carried into the coffee room mid-run.
func Table11(cfg RunConfig) Table {
	l := topo.Figure11()
	mv := topo.Figure11MoveSpec()
	mods := func(n *core.Network) {
		n.Medium.SetNoise(phy.RegionLoss{P: 0.01, InRegion: topo.Cell1NoiseRegion})
		p7 := n.Station("P7")
		p7.Radio().SetPos(mv.Start)
		n.MoveStation(p7, moveTime(cfg), mv.Dest)
	}
	macaRes := cfg.goRun("MACA", l, core.MACAFactory(), mods)
	macawRes := cfg.goRun("MACAW", l, core.MACAWFactory(macaw.DefaultOptions()), mods)
	return Table{
		ID: "table11", Figure: l.Name,
		Title:   "office scenario (TCP, noise, mobility): MACA vs MACAW",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "MACA", Paper: map[string]float64{
				"P1-B1": 0.78, "P2-B1": 1.30, "P3-B1": 0.22, "P4-B1": 0.06,
				"P5-B3": 18.17, "P6-B2": 6.94, "P7-B4": 23.82,
			}, Results: macaRes.wait()},
			{Name: "MACAW", Paper: map[string]float64{
				"P1-B1": 2.39, "P2-B1": 2.72, "P3-B1": 2.54, "P4-B1": 2.87,
				"P5-B3": 14.45, "P6-B2": 14.00, "P7-B4": 19.18,
			}, Results: macawRes.wait()},
		},
		Notes: "P7 enters the coffee room at 15% of the run (the paper: 300s of 2000s); the whiteboard noise is a 1% error rate on receptions in the open area",
	}
}

// moveTime scales the paper's 300-of-2000-seconds arrival to the run
// length.
func moveTime(cfg RunConfig) sim.Time {
	return sim.Time(int64(cfg.Total) * 3 / 20)
}

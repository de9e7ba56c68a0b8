package macaw_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/experiments"
	"macaw/internal/geom"
	"macaw/internal/mac/macaw"
	"macaw/internal/metrics"
	"macaw/internal/phy"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// One benchmark per table of the paper's evaluation. Each iteration
// regenerates the table on a shortened run and reports the headline
// throughput as a custom pps metric, so regressions in either simulator
// performance (ns/op) or protocol behaviour (pps) are visible. Iteration i
// runs seed i+1, and every pps-style metric is the first iteration's (seed
// 1), so it does not depend on b.N and hence on host speed.

func benchTable(b *testing.B, run func(experiments.RunConfig) experiments.Table, col int) {
	b.Helper()
	b.ReportAllocs()
	cfg := experiments.Bench()
	var pps float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		tab := run(cfg)
		if i == 0 {
			pps = tab.MeasuredTotal(col)
		}
	}
	b.ReportMetric(pps, "pps")
}

func BenchmarkTable1(b *testing.B)  { benchTable(b, experiments.Table1, 1) }
func BenchmarkTable2(b *testing.B)  { benchTable(b, experiments.Table2, 1) }
func BenchmarkTable3(b *testing.B)  { benchTable(b, experiments.Table3, 1) }
func BenchmarkTable4(b *testing.B)  { benchTable(b, experiments.Table4, 1) }
func BenchmarkTable5(b *testing.B)  { benchTable(b, experiments.Table5, 1) }
func BenchmarkTable6(b *testing.B)  { benchTable(b, experiments.Table6, 1) }
func BenchmarkTable7(b *testing.B)  { benchTable(b, experiments.Table7, 0) }
func BenchmarkTable8(b *testing.B)  { benchTable(b, experiments.Table8, 1) }
func BenchmarkTable9(b *testing.B)  { benchTable(b, experiments.Table9, 1) }
func BenchmarkTable10(b *testing.B) { benchTable(b, experiments.Table10, 1) }
func BenchmarkTable11(b *testing.B) { benchTable(b, experiments.Table11, 1) }

// benchAllTables regenerates every paper table per iteration, serially for
// jobs <= 1 or on a jobs-wide worker pool otherwise. The ns/op ratio between
// the serial and parallel variants is the runner's wall-clock speedup; the
// results themselves are identical by construction (TestParallelMatchesSerial).
func benchAllTables(b *testing.B, jobs int) {
	b.Helper()
	b.ReportAllocs()
	cfg := experiments.Bench()
	gens := experiments.All()
	var pps float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		var last experiments.Table
		if jobs <= 1 {
			for _, g := range gens {
				last = g.Run(cfg)
			}
		} else {
			tabs, err := experiments.NewRunner(jobs).Tables(gens, cfg)
			if err != nil {
				b.Fatal(err)
			}
			last = tabs[len(tabs)-1]
		}
		if i == 0 {
			pps = last.MeasuredTotal(1)
		}
	}
	b.ReportMetric(pps, "pps")
}

func BenchmarkAllTablesSerial(b *testing.B) { benchAllTables(b, 1) }

func BenchmarkAllTablesParallel(b *testing.B) {
	jobs := runtime.GOMAXPROCS(0)
	if jobs < 4 {
		jobs = 4
	}
	benchAllTables(b, jobs)
}

// BenchmarkMetricsOverhead regenerates every paper table per iteration,
// plain and then as macawsim -metrics does: a collector on every run and
// the document written at the end. When both sides run, it fails when the
// metrics side costs more than maxMetricsOverPlain times the plain side,
// read from metricsCosts rather than from the two sub-benchmarks: at
// -benchtime 1x each side is one op, which catches whatever else the host
// ran at that moment. On a 2-vCPU linux/amd64 host their ratio read up to
// 1.75x over 20 runs, where metricsCosts read 1.26-1.62x over 14 (the
// one-op ratio read 1.69-2.23x when every hook looked its instrument up
// by a name it built). With the document written without encoding/json,
// metricsCosts read 1.00-1.58x over 24 runs, median 1.22x. Both sides run
// in this process, so the ceiling does not depend on host speed.
func BenchmarkMetricsOverhead(b *testing.B) {
	const maxMetricsOverPlain = 1.7
	modes := []string{"plain", "metrics"}
	var ran [2]bool
	for k, mode := range modes {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				paperTables(b, mode, int64(i+1))
			}
			ran[k] = true
		})
	}
	if !ran[0] || !ran[1] {
		return
	}
	requireCeiling(b, metricsCosts(b, modes), "metrics", "plain", maxMetricsOverPlain)
}

// paperTables regenerates every paper table at seed on the benchmark
// configuration; in "metrics" mode with a collector on every run and the
// document written at the end.
func paperTables(b *testing.B, mode string, seed int64) {
	cfg := experiments.Bench()
	cfg.Seed = seed
	if mode == "metrics" {
		cfg.Metrics = metrics.NewSink()
	}
	for _, g := range experiments.All() {
		g.Run(cfg)
	}
	if cfg.Metrics != nil {
		if err := cfg.Metrics.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// metricsCosts times metricsRounds table sets in each mode in turn,
// alternating which mode goes first, and returns each mode's fastest
// round in ns, as seedCosts does for BenchmarkSeed: a pause of the
// process, or a burst of other work on the host, slows the rounds it
// lands in, and the fastest round of each mode is the one that ran clear
// of it. Each round starts from a collected heap, so neither mode pays
// for the garbage the other left: the metrics side allocates about 18 MB
// a round, the plain side about 7 MB.
func metricsCosts(b *testing.B, modes []string) map[string]float64 {
	const metricsRounds = 5
	best := make(map[string]float64, len(modes))
	for r := 0; r < metricsRounds; r++ {
		for i := range modes {
			mode := modes[(i+r)%len(modes)]
			runtime.GC()
			start := time.Now()
			paperTables(b, mode, 1)
			if d := float64(time.Since(start).Nanoseconds()); r == 0 || d < best[mode] {
				best[mode] = d
			}
		}
	}
	return best
}

// singleStream runs one saturating UDP pad-to-base stream under the given
// factory and reports its throughput.
func singleStream(b *testing.B, f core.MACFactory) {
	b.Helper()
	var pps float64
	for i := 0; i < b.N; i++ {
		n := core.NewNetwork(int64(i + 1))
		p := n.AddStation("P", geom.V(-4, 0, 6), f)
		base := n.AddStation("B", geom.V(0, 0, 12), f)
		n.AddStream(p, base, core.UDP, 64)
		res := n.Run(30*sim.Second, 5*sim.Second)
		if i == 0 {
			pps = res.PPS("P-B")
		}
	}
	b.ReportMetric(pps, "pps")
}

// Ablation benches for the design choices DESIGN.md calls out: each strips
// one MACAW mechanism so its cost/benefit is directly measurable.

func BenchmarkAblationExchangeBasic(b *testing.B) {
	singleStream(b, core.MACAWFactory(macaw.Options{Exchange: macaw.Basic}))
}

func BenchmarkAblationExchangeWithACK(b *testing.B) {
	singleStream(b, core.MACAWFactory(macaw.Options{Exchange: macaw.WithACK}))
}

func BenchmarkAblationExchangeFull(b *testing.B) {
	singleStream(b, core.MACAWFactory(macaw.Options{Exchange: macaw.Full}))
}

func BenchmarkAblationBEBvsMILD(b *testing.B) {
	for _, strat := range []backoff.Strategy{backoff.NewBEB(), backoff.NewMILD()} {
		strat := strat
		b.Run(strat.Name(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				n := core.NewNetwork(int64(i + 1))
				base := n.AddStation("B", geom.V(0, 0, 12), core.MACAWFactoryWith(
					macaw.Options{Exchange: macaw.Basic},
					func() backoff.Policy { return backoff.NewSingle(strat, true) }))
				for _, name := range []string{"P1", "P2", "P3", "P4"} {
					p := n.AddStation(name, geom.V(float64(len(name)), 2, 6), core.MACAWFactoryWith(
						macaw.Options{Exchange: macaw.Basic},
						func() backoff.Policy { return backoff.NewSingle(strat, true) }))
					n.AddStream(p, base, core.UDP, 64)
				}
				res := n.Run(20*sim.Second, 2*sim.Second)
				if i == 0 {
					total = res.TotalPPS()
				}
			}
			b.ReportMetric(total, "pps")
		})
	}
}

// BenchmarkAblationCubeGrid compares the paper's cube-quantized propagation
// against the exact-distance model: the physics substitution must not change
// throughput.
func BenchmarkAblationCubeGrid(b *testing.B) {
	for _, cube := range []bool{true, false} {
		cube := cube
		name := "exact"
		if cube {
			name = "cubegrid"
		}
		b.Run(name, func(b *testing.B) {
			var pps float64
			for i := 0; i < b.N; i++ {
				n := core.NewNetwork(int64(i + 1))
				params := phy.DefaultParams()
				params.CubeGrid = cube
				n.Medium.SetPropagation(phy.NewPropagation(params))
				p := n.AddStation("P", geom.V(-4, 0, 6), core.MACAWFactory(macaw.DefaultOptions()))
				base := n.AddStation("B", geom.V(0, 0, 12), core.MACAWFactory(macaw.DefaultOptions()))
				n.AddStream(p, base, core.UDP, 64)
				res := n.Run(20*sim.Second, 2*sim.Second)
				if i == 0 {
					pps = res.PPS("P-B")
				}
			}
			b.ReportMetric(pps, "pps")
		})
	}
}

// Extension experiment benches (§4 design alternatives).

func BenchmarkExtAckSchemes(b *testing.B)   { benchTable(b, experiments.ExtAckSchemes, 1) }
func BenchmarkExtCarrierSense(b *testing.B) { benchTable(b, experiments.ExtCarrierSense, 1) }
func BenchmarkExtLeakage(b *testing.B)      { benchTable(b, experiments.ExtLeakage, 1) }
func BenchmarkExtToken(b *testing.B)        { benchTable(b, experiments.ExtTokenVsMACAW, 0) }

// BenchmarkExtLoadSweep reports MACAW's saturated carried load.
func BenchmarkExtLoadSweep(b *testing.B) {
	cfg := experiments.Bench()
	var pps float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		tab := experiments.ExtLoadSweep(cfg)
		if i == 0 {
			pps = tab.Columns[1].Results.PPS("offered=16x4")
		}
	}
	b.ReportMetric(pps, "pps")
}

// BenchmarkExtMulticast reports the §3.3.4 multicast delivery ratios.
func BenchmarkExtMulticast(b *testing.B) {
	var r experiments.MulticastResult
	cfg := experiments.Bench()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if got := experiments.ExtMulticast(cfg); i == 0 {
			r = got
		}
	}
	b.ReportMetric(float64(r.NearDelivered)/float64(r.Sent), "near-ratio")
	b.ReportMetric(float64(r.FarDelivered)/float64(r.Sent), "far-ratio")
}

// benchScale measures how per-event medium cost scales with station count:
// a building-sized clustered topology (one upstream stream per pad) run
// with the neighborhood index against the same topology forced onto the
// exhaustive all-radios paths. Both modes simulate the identical event
// sequence (the index is bit-exact), so the ns/op ratio is pure per-event
// cost. avg-nbr is the mean neighborhood size the indexed cost tracks. A
// nonzero floor is the least exhaustive/indexed ns/op ratio accepted once
// both modes ran: N=500 measured 11.7-15x on a 2-vCPU linux/amd64 host, so
// its 4x floor holds for a single 1x sample on a loaded runner.
func benchScale(b *testing.B, stations int, floor float64) {
	nsPerOp := map[string]float64{}
	for _, mode := range []string{"indexed", "exhaustive"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var pps, nbr float64
			for i := 0; i < b.N; i++ {
				net := core.NewNetwork(int64(i + 1))
				if mode == "exhaustive" {
					net.Medium.SetExhaustive(true)
				}
				l := topo.Random(topo.RandomSpec{N: stations, Seed: 42, Clustered: true})
				if err := l.Build(net, core.MACAWFactory(macaw.DefaultOptions())); err != nil {
					b.Fatal(err)
				}
				res := net.Run(4*sim.Second, 1*sim.Second)
				if i == 0 {
					pps, nbr = res.TotalPPS(), net.Medium.AvgNeighbors()
				}
			}
			b.ReportMetric(pps, "pps")
			b.ReportMetric(nbr, "avg-nbr")
			nsPerOp[mode] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	requireRatio(b, nsPerOp, "exhaustive", "indexed", floor)
}

// requireRatio is the perf gate: it fails b when both modes ran and slow's
// ns/op is under floor times fast's. The two modes ran in this process on
// this host, so the ratio holds across hosts where a stored ns/op would
// not. A zero floor, or a mode filtered out by -bench, skips the check.
func requireRatio(b *testing.B, nsPerOp map[string]float64, slow, fast string, floor float64) {
	b.Helper()
	s, okSlow := nsPerOp[slow]
	f, okFast := nsPerOp[fast]
	if floor == 0 || !okSlow || !okFast {
		return
	}
	r := s / f
	b.Logf("%s/%s ns/op ratio %.2fx (floor %gx)", slow, fast, r, floor)
	if r < floor {
		b.Fatalf("%s/%s ns/op ratio %.2fx is below its %gx floor", slow, fast, r, floor)
	}
}

// requireCeiling is requireRatio's other side: it fails b when both modes
// ran and slow's ns/op is over ceiling times fast's.
func requireCeiling(b *testing.B, nsPerOp map[string]float64, slow, fast string, ceiling float64) {
	b.Helper()
	s, okSlow := nsPerOp[slow]
	f, okFast := nsPerOp[fast]
	if !okSlow || !okFast {
		return
	}
	r := s / f
	b.Logf("%s/%s ns/op ratio %.2fx (ceiling %gx)", slow, fast, r, ceiling)
	if r > ceiling {
		b.Fatalf("%s/%s ns/op ratio %.2fx exceeds its %gx ceiling", slow, fast, r, ceiling)
	}
}

func BenchmarkScaleN50(b *testing.B)   { benchScale(b, 50, 0) }
func BenchmarkScaleN200(b *testing.B)  { benchScale(b, 200, 0) }
func BenchmarkScaleN500(b *testing.B)  { benchScale(b, 500, 4) }
func BenchmarkScaleN1000(b *testing.B) { benchScale(b, 1000, 0) }

// cityBlueprint builds the 10k-station city benchmark topology: default
// physics (60 dB floor, certified cutoff ≈ 102 ft) over a 12000 ft side —
// city blocks of clustered nanocells rather than one packed building — so
// the topology decomposes into ~1250 causally independent radio components
// the sharded engine can run in parallel.
func cityBlueprint(b *testing.B, stations int) core.Blueprint {
	b.Helper()
	l := topo.Random(topo.RandomSpec{N: stations, Seed: 42, Clustered: true, AreaFt: 12000})
	bp, err := l.Blueprint(core.MACAWFactory(macaw.DefaultOptions()))
	if err != nil {
		b.Fatal(err)
	}
	return bp
}

// BenchmarkScaleN10000 measures the sharded engine at the ROADMAP's
// city-scale regime: 10000 stations, serial vs 2/4/8 shards. Every mode
// simulates the identical event history (the sharded engine is bit-exact),
// so ns/op ratios are pure parallel speedup; the rendered Results, every
// stream's row, must agree across modes — the benchmark fails if they do
// not. It also fails when serial/shards2 ns/op drops under 2x: splitting
// the city into per-component heaps and gain caches wins even on one core
// (4.2x at GOMAXPROCS=1; 7-10x on 2 vCPUs), so the floor keeps a 2x margin
// on a single-CPU runner too.
func BenchmarkScaleN10000(b *testing.B) {
	const stations = 10000
	const total, warmup = 2 * sim.Second, 500 * sim.Millisecond
	serialTable := map[int64]string{} // seed -> serial result, cross-checked by the sharded modes
	nsPerOp := map[string]float64{}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		name := "serial"
		if shards > 1 {
			name = fmt.Sprintf("shards%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			var pps float64
			var comps int
			for i := 0; i < b.N; i++ {
				seed := int64(i + 1)
				bp := cityBlueprint(b, stations)
				bp.Seed = seed
				res, info, err := bp.Run(total, warmup, shards)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					pps, comps = res.TotalPPS(), info.Components
				}
				got := res.String()
				if shards == 1 {
					serialTable[seed] = got
				} else if want, ok := serialTable[seed]; ok && got != want {
					b.Fatalf("shards=%d seed=%d: rendered results differ from serial: determinism broken",
						shards, seed)
				}
			}
			b.ReportMetric(pps, "pps")
			b.ReportMetric(float64(comps), "components")
			nsPerOp[name] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	requireRatio(b, nsPerOp, "serial", "shards2", 2)
}

// BenchmarkSimulatorEventRate measures raw simulator throughput: simulated
// exchanges per wall-clock second on a saturated single cell.
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := core.NewNetwork(1)
		p := n.AddStation("P", geom.V(-4, 0, 6), core.MACAWFactory(macaw.DefaultOptions()))
		base := n.AddStation("B", geom.V(0, 0, 12), core.MACAWFactory(macaw.DefaultOptions()))
		n.AddStream(p, base, core.UDP, 64)
		n.Run(60*sim.Second, 0)
	}
}

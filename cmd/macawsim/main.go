// Command macawsim regenerates the paper's evaluation tables.
//
// Usage:
//
//	macawsim [-table table1..table11|ext-*|ext|all] [-chaos] [-audit] [-total SECONDS] [-warmup SECONDS] [-seed N] [-paper]
//	         [-jobs N] [-metrics FILE] [-tracejson FILE [-tracefrom SECONDS]] [-cpuprofile FILE] [-memprofile FILE]
//	macawsim -sweep "kind=v1,v2[;kind2=v3,…]" [run-length, seed, -audit and -jobs flags]
//
// Each table prints the paper's reported packets-per-second next to this
// reproduction's measurements. -paper selects the paper's 500 s run length;
// the default is a faster 120 s run that exhibits the same shapes. -jobs N
// runs the independent simulations on N workers (capped at the core count);
// every run is seeded before dispatch, so the output is byte-identical to
// the serial (-jobs 1) path. Each simulation runs on one event heap.
// -chaos replaces the table set with the robustness table: MACA vs MACAW
// under injected faults (burst loss, asymmetric links, crash/restart,
// mobility), each run swept by the FSM liveness watchdog.
// -audit attaches the protocol-conformance oracle to every run: each station
// is checked online against the paper's Appendix A/B rules (exchange
// ordering, deferral, backoff headers, delivery), and any violation aborts
// with a replayable report naming the seed, station, and rule. The oracle is
// passive — audited output is byte-identical to an unaudited run.
// -metrics FILE writes a JSON document of per-station and per-stream metrics
// (delay histograms, backoff time-series, FSM residency, queue depths) for
// every run; -tracejson FILE writes every run's MAC-internal events as JSON
// Lines for cmd/macawtrace -summarize. Both collectors are passive: the
// table output is byte-identical with or without them, at any -jobs value.
// -tracefrom SECONDS is time-travel triage: every run is a pure function of
// its table, seed and run length, so rerunning the failing invocation with
// -tracejson and -tracefrom just before the moment of interest (an oracle
// violation, a wedge) records exactly the tail that led to it.
// -sweep "kind=v1,v2;…" replaces the table set with a warm-started parameter
// sweep: every (variant, protocol) cell warms its network up under the base
// configuration, applies the variant's typed delta at the warmup barrier,
// and runs the measured tail.
//
// Crash-safe resume of long campaigns is cmd/macawd's job: its ledger serves
// every completed run after a restart.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"macaw/internal/experiments"
	"macaw/internal/metrics"
	"macaw/internal/sim"
	"macaw/internal/trace"
)

func main() {
	table := flag.String("table", "all", "experiment to regenerate (table1..table11, ext-*, all, or ext)")
	total := flag.Float64("total", 0, "simulated seconds (0 = preset)")
	warmup := flag.Float64("warmup", 0, "warmup seconds excluded from measurement (0 = preset)")
	seed := flag.Int64("seed", 1, "random seed")
	paper := flag.Bool("paper", false, "use the paper's 500s/50s run length")
	format := flag.String("format", "text", "output format: text or csv")
	jobs := flag.Int("jobs", 1, "number of simulations to run concurrently (output is identical for any value)")
	chaos := flag.Bool("chaos", false, "emit the fault-injection robustness table instead of the paper tables")
	auditFlag := flag.Bool("audit", false, "check every run against the paper's protocol rules; violations abort with a replayable report")
	metricsOut := flag.String("metrics", "", "write per-station/per-stream metrics for every run as JSON to this file")
	traceOut := flag.String("tracejson", "", "write every run's MAC events as JSON Lines to this file")
	traceMax := flag.Int("tracemax", experiments.DefaultTraceMax, "max trace events recorded per run with -tracejson (overflow is counted, not kept)")
	traceFrom := flag.Float64("tracefrom", 0, "with -tracejson, record only events from this simulated second on (triage: rerun the failing table and seed, tracing just the tail)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	sweepSpec := flag.String("sweep", "", sweepUsage())
	flag.Parse()

	if err := validateFlags(flagSet{
		sweep: *sweepSpec, chaos: *chaos,
		traceJSON: *traceOut, traceFrom: *traceFrom, format: *format,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "macawsim: %v\n", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macawsim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "macawsim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "macawsim: -memprofile: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "macawsim: -memprofile: %v\n", err)
				os.Exit(2)
			}
		}()
	}

	cfg := experiments.Quick()
	if *paper {
		cfg = experiments.Paper()
	}
	if *total > 0 {
		cfg.Total = sim.FromSeconds(*total)
	}
	if *warmup > 0 {
		cfg.Warmup = sim.FromSeconds(*warmup)
	}
	cfg.Seed = *seed
	cfg.Audit = *auditFlag
	if *metricsOut != "" {
		cfg.Metrics = metrics.NewSink()
	}
	if *traceOut != "" {
		cfg.Trace = trace.NewJSONLSink()
		cfg.TraceMax = *traceMax
		cfg.TraceFrom = sim.FromSeconds(*traceFrom)
	}
	if cfg.Warmup >= cfg.Total {
		fmt.Fprintln(os.Stderr, "macawsim: warmup must be shorter than total")
		os.Exit(2)
	}

	if *sweepSpec != "" {
		runSweep(cfg.WithRunner(experiments.NewRunner(*jobs)), *sweepSpec, *format)
		return
	}

	var gens []experiments.Generator
	switch {
	case *chaos:
		gens = []experiments.Generator{experiments.ChaosGenerator()}
	default:
		gens = tableGens(*table)
	}

	// The serial and parallel paths produce the same tables in the same
	// order; -jobs only changes how many simulations are in flight. The
	// runner is used even at -jobs 1 so a failed run reports which
	// (table, seed) died instead of crashing from a worker goroutine.
	tabs, err := experiments.NewRunner(*jobs).Tables(gens, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macawsim: %v\n", err)
		os.Exit(1)
	}

	if cfg.Metrics != nil {
		if err := writeFile(*metricsOut, cfg.Metrics.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "macawsim: -metrics: %v\n", err)
			os.Exit(2)
		}
	}
	if cfg.Trace != nil {
		if err := writeFile(*traceOut, cfg.Trace.WriteJSONL); err != nil {
			fmt.Fprintf(os.Stderr, "macawsim: -tracejson: %v\n", err)
			os.Exit(2)
		}
		if d := cfg.Trace.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "macawsim: -tracejson: %d events beyond the per-run cap (%d) were dropped; raise -tracemax to keep them\n", d, cfg.TraceMax)
		}
	}

	render(cfg, tabs, *format)
}

// runSweep implements -sweep: parse the variant spec, execute the sweep
// grid, and render the variants-by-protocol throughput and fairness tables
// with a one-line execution summary on stderr.
func runSweep(cfg experiments.RunConfig, spec string, format string) {
	variants, err := experiments.ParseSweepSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macawsim: -sweep: %v\n", err)
		os.Exit(2)
	}
	tabs, info, err := experiments.RunSweepTables(cfg, variants, experiments.SweepOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "macawsim: -sweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "macawsim: sweep: %d variants x %d protocols (%d warmups)\n",
		info.Variants, info.Protocols, info.Warmups)
	render(cfg, tabs, format)
}

// render prints tabs to stdout: one "# id" CSV block per table for -format
// csv, otherwise the rendered tables under a run-length header.
func render(cfg experiments.RunConfig, tabs []experiments.Table, format string) {
	if format == "csv" {
		for _, tab := range tabs {
			fmt.Printf("# %s\n%s\n", tab.ID, tab.CSV())
		}
		return
	}
	fmt.Printf("MACAW reproduction — %gs runs, %gs warmup, seed %d\n\n",
		cfg.Total.Seconds(), cfg.Warmup.Seconds(), cfg.Seed)
	for _, tab := range tabs {
		fmt.Println(tab.Render())
	}
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tableGens resolves the -table selector to generators, exiting on a typo.
func tableGens(table string) []experiments.Generator {
	switch table {
	case "all":
		return append(experiments.All(), experiments.Extensions()...)
	case "ext":
		return experiments.Extensions()
	}
	g, ok := experiments.Lookup(table)
	if !ok {
		fmt.Fprintf(os.Stderr, "macawsim: unknown experiment %q; available: %s\n",
			table, strings.Join(experiments.KnownIDs(), ", "))
		os.Exit(2)
	}
	return []experiments.Generator{g}
}

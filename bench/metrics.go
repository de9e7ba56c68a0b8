package main

import "fmt"

// metricDef names one reported metric, its unit, which direction is better
// and how far it may worsen. compare calls a change worse when its median
// is worse than the parent's by more than Bound times the parent's median
// or by more than Floor, in the metric's unit, whichever is larger.
type metricDef struct {
	Name, Unit, Better string
	Bound, Floor       float64
}

// endToEnd are the metrics every workload reports from its untraced
// repetitions, the ones BENCHMARK.json lists with the same bounds. They are
// the ones that hold still on a shared host: the time a run takes drifts
// with the host's speed by more than any bound BENCHMARK.json allows.
var endToEnd = []metricDef{
	// Heap bytes the body allocates; nearly deterministic for an input.
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	// Time from a repetition's process launch until its set-up calls
	// return, the shortest of the run's repetitions. Below 40 ms the 10 ms
	// floor is the wider slack.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.010},
}

// Every workload also reports these beside the end-to-end metrics.
var (
	// peakRSS is the highest VmHWM of any repetition's process.
	peakRSS = metricDef{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.1}
	// failedShare is failed over attempted ops; any increase is worse.
	failedShare = metricDef{Name: "failed_share", Unit: "failed/attempted", Better: "lower"}
)

// details are each workload's headline numbers, one sample per repetition.
var details = map[string][]metricDef{
	"paper": {
		{Name: "tables_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "sweep_s", Unit: "s", Better: "lower", Bound: 0.1},
	},
	"building": {{Name: "sim_s_per_host_s", Unit: "sim-s/host-s", Better: "higher", Bound: 0.1}},
	"city":     {{Name: "sim_s_per_host_s", Unit: "sim-s/host-s", Better: "higher", Bound: 0.1}},
	"campaign": {
		{Name: "cold_runs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.1},
		{Name: "resubmit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "resubmit_p75_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.1},
	},
}

// perLayer are the metrics of the traced run. Every workload reports all of
// them; a layer the workload does not reach reads 0. They have no bound.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.max_queue", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "phy.tx", Unit: "count", Better: "lower"},
		{Name: "phy.delivered", Unit: "count", Better: "higher"},
		{Name: "phy.corrupted", Unit: "count", Better: "lower"},
		{Name: "phy.clean_ratio", Unit: "ratio", Better: "higher"},
		{Name: "phy.avg_neighbors", Unit: "count", Better: "lower"},
		{Name: "mac.rts_sent", Unit: "count", Better: "lower"},
		{Name: "mac.data_sent", Unit: "count", Better: "higher"},
		{Name: "mac.retries", Unit: "count", Better: "lower"},
		{Name: "mac.drops", Unit: "count", Better: "lower"},
		{Name: "mac.data_per_rts", Unit: "ratio", Better: "higher"},
		{Name: "core.components", Unit: "count", Better: "higher"},
		{Name: "core.partition_s", Unit: "s", Better: "lower"},
		{Name: "core.shard_imbalance", Unit: "ratio", Better: "lower"},
	}
	for i := 1; i <= 11; i++ {
		defs = append(defs, metricDef{Name: fmt.Sprintf("experiments.table_s.table%d", i), Unit: "s", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "experiments.sweep_warmups", Unit: "count", Better: "lower"},
		metricDef{Name: "experiments.sweep_forks", Unit: "count", Better: "higher"},
		metricDef{Name: "metrics.doc_bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "snapshot.ledger_bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "snapshot.bytes_written", Unit: "bytes", Better: "lower"},
		metricDef{Name: "snapshot.write_amplification", Unit: "ratio", Better: "lower"},
		metricDef{Name: "campaign.submit_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "campaign.cache_hits", Unit: "count", Better: "higher"},
		metricDef{Name: "campaign.live_heap_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{Name: l + ".cpu_share", Unit: "share", Better: "lower"})
	}
	return defs
}()

// deterministic lists the per-layer counters that a fixed seed must
// reproduce exactly; two traced repetitions that disagree on one fail the
// run.
var deterministic = []string{
	"sim.events", "sim.max_queue",
	"phy.tx", "phy.delivered", "phy.corrupted", "phy.avg_neighbors",
	"mac.rts_sent", "mac.data_sent", "mac.retries", "mac.drops",
	"core.components", "experiments.sweep_warmups", "experiments.sweep_forks",
	"metrics.doc_bytes", "snapshot.ledger_bytes", "campaign.cache_hits",
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"macaw/bench/stat"
	"macaw/internal/campaign"
	"macaw/internal/core"
	"macaw/internal/experiments"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/macaw"
	"macaw/internal/metrics"
	"macaw/internal/phy"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// sizes fixes the input size of every workload. main runs fullSizes; the
// smoke tests run the same bodies at tiny sizes.
type sizes struct {
	Paper    paperSize
	Building buildingSize
	City     citySize
	Campaign campaignSize
}

type paperSize struct {
	Total, Warmup sim.Duration
	Sweep         string
}

type buildingSize struct {
	N                    int
	Total, Warmup, Slice sim.Duration
}

type citySize struct {
	N             int
	AreaFt        float64
	Total, Warmup sim.Duration
}

type campaignSize struct {
	Seeds           int
	TotalS, WarmupS float64
	Resubmits       int
}

var fullSizes = sizes{
	Paper: paperSize{
		Total: experiments.Paper().Total, Warmup: experiments.Paper().Warmup,
		Sweep: "backoff.max=8,32;cw.min=7,31",
	},
	Building: buildingSize{N: 500, Total: 20 * sim.Second, Warmup: 2 * sim.Second, Slice: sim.Second / 5},
	City:     citySize{N: 10000, AreaFt: 12000, Total: 8 * sim.Second, Warmup: sim.Second},
	Campaign: campaignSize{Seeds: 6, TotalS: 10, WarmupS: 2, Resubmits: 40},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(r *rep, sz sizes) error
}

var workloads = []workload{
	{"paper", func(r *rep, sz sizes) error { return runPaper(r, sz.Paper) }},
	{"building", func(r *rep, sz sizes) error { return runBuilding(r, sz.Building) }},
	{"city", func(r *rep, sz sizes) error { return runCity(r, sz.City) }},
	{"campaign", func(r *rep, sz sizes) error { return runCampaign(r, sz.Campaign) }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repResult is what one repetition reports. A child process prints it as
// JSON for the parent to aggregate.
type repResult struct {
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	AllocMB   float64            `json:"alloc_mb"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Detail    map[string]float64 `json:"detail"`
	Counters  map[string]float64 `json:"counters,omitempty"`
	// LatencySamples is the number of requests behind the latency
	// percentiles in Detail.
	LatencySamples int      `json:"latency_samples,omitempty"`
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	Digest         string   `json:"digest"`
	Errors         []string `json:"errors,omitempty"`
	Spans          []span   `json:"spans,omitempty"`
}

// rep is one repetition of one workload: its inputs, what it records, and
// the body's resource accounting.
type rep struct {
	seed     int64
	width    int    // GOMAXPROCS, the city's shard count and the campaign's workers
	traced   bool   // read per-layer counters and profile the body
	tmp      string // temporary directory for the campaign's state
	launched time.Time
	profile  string // where a traced body's CPU profile goes

	rec *recorder
	sum hash.Hash
	res repResult

	body     int
	bodyMem  runtime.MemStats
	profFile *os.File
}

func newRep(w string, seed int64, traced bool, tmp string, launched time.Time) *rep {
	r := &rep{
		seed: seed, width: runtime.GOMAXPROCS(0), traced: traced, tmp: tmp, launched: launched,
		rec: newRecorder(fmt.Sprintf("%s-seed%d-%d", w, seed, launched.UnixNano())),
		sum: sha256.New(),
	}
	r.res.Detail = make(map[string]float64)
	if traced {
		r.res.Counters = make(map[string]float64)
	}
	return r
}

// run executes the workload once and returns what the repetition reports.
// A panic or error anywhere in the workload fails every operation of it.
func (r *rep) run(w workload, sz sizes) (res repResult) {
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return w.run(r, sz)
	}()
	if r.profFile != nil {
		pprof.StopCPUProfile()
		r.profFile.Close()
	}
	if err != nil {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf("%s: %v", w.name, err))
	}
	if len(r.res.Errors) > 0 {
		r.res.Attempted = max(r.res.Attempted, 1)
		r.res.Failed = r.res.Attempted
	}
	r.res.Digest = hex.EncodeToString(r.sum.Sum(nil))
	if r.traced {
		r.res.Spans = r.rec.finished()
	}
	r.res.PeakRSSMB = peakRSSMB()
	return r.res
}

// setupDone records the set-up time: from the launch of the repetition's
// process until the workload's set-up calls have returned, so work moved
// into package initialisation shows as well.
func (r *rep) setupDone() { r.res.SetupS = time.Since(r.launched).Seconds() }

// startBody opens the timed body; on a traced repetition it also starts
// the CPU profile.
func (r *rep) startBody() error {
	runtime.ReadMemStats(&r.bodyMem)
	if r.traced {
		f, err := os.Create(r.profile)
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
		r.profFile = f
	}
	r.body = r.rec.begin("body", 0)
	return nil
}

// stopBody closes the timed body and records its wall time and heap
// allocation.
func (r *rep) stopBody() error {
	r.res.WallS = r.rec.end(r.body)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.res.AllocMB = float64(m.TotalAlloc-r.bodyMem.TotalAlloc) / (1 << 20)
	if !r.traced {
		return nil
	}
	pprof.StopCPUProfile()
	err := r.profFile.Close()
	r.profFile = nil
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	r.res.Counters["runtime.gc_cycles"] = float64(m.NumGC - r.bodyMem.NumGC)
	r.res.Counters["runtime.gc_pause_ms"] = float64(m.PauseTotalNs-r.bodyMem.PauseTotalNs) / 1e6
	r.res.Counters["runtime.alloc_mb"] = r.res.AllocMB
	return nil
}

// hash adds workload output to the repetition's digest.
func (r *rep) hash(s string) { r.sum.Write([]byte(s)) }

// check records a failed output check.
func (r *rep) check(format string, args ...any) {
	r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
}

// layerCounts accumulates the work counters read through the layers'
// public APIs.
type layerCounts struct {
	events    uint64
	maxQueue  int
	phy       phy.Counters
	mac       mac.Stats
	neighbors float64 // sum over stations of their neighbourhood size
	stations  int
}

func (c *layerCounts) addEngine(events uint64, maxQueue int) {
	c.events += events
	c.maxQueue = max(c.maxQueue, maxQueue)
}

func (c *layerCounts) addPhy(p phy.Counters) {
	c.phy.Transmissions += p.Transmissions
	c.phy.Delivered += p.Delivered
	c.phy.Corrupted += p.Corrupted
	c.phy.NoiseDropped += p.NoiseDropped
	c.phy.Aborted += p.Aborted
}

func (c *layerCounts) addMAC(s mac.Stats) {
	c.mac.RTSSent += s.RTSSent
	c.mac.DataSent += s.DataSent
	c.mac.Retries += s.Retries
	c.mac.Drops += s.Drops
}

// addNetwork adds a finished network's engine, medium and MAC counters.
func (c *layerCounts) addNetwork(n *core.Network, res core.Results) {
	c.addEngine(n.Sim.Fired(), n.Sim.MaxQueued())
	c.addPhy(res.Medium)
	for _, st := range n.Stations() {
		c.addMAC(st.MAC().Stats())
	}
	c.neighbors += n.Medium.AvgNeighbors() * float64(len(n.Stations()))
	c.stations += len(n.Stations())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c *layerCounts) report(m map[string]float64) {
	m["sim.events"] = float64(c.events)
	m["sim.max_queue"] = float64(c.maxQueue)
	m["phy.tx"] = float64(c.phy.Transmissions)
	m["phy.delivered"] = float64(c.phy.Delivered)
	m["phy.corrupted"] = float64(c.phy.Corrupted)
	receptions := c.phy.Delivered + c.phy.Corrupted + c.phy.NoiseDropped + c.phy.Aborted
	m["phy.clean_ratio"] = ratio(float64(c.phy.Delivered), float64(receptions))
	m["phy.avg_neighbors"] = ratio(c.neighbors, float64(c.stations))
	m["mac.rts_sent"] = float64(c.mac.RTSSent)
	m["mac.data_sent"] = float64(c.mac.DataSent)
	m["mac.retries"] = float64(c.mac.Retries)
	m["mac.drops"] = float64(c.mac.Drops)
	m["mac.data_per_rts"] = ratio(float64(c.mac.DataSent), float64(c.mac.RTSSent))
}

// runPaper regenerates the eleven paper tables at the paper's run length,
// serially, then runs a warm-started parameter sweep over every MAC
// backend at the same length.
func runPaper(r *rep, sz paperSize) error {
	gens := experiments.All()
	variants, err := experiments.ParseSweepSpec(sz.Sweep)
	if err != nil {
		return err
	}
	r.setupDone()

	if err := r.startBody(); err != nil {
		return err
	}
	cfg := experiments.RunConfig{Total: sz.Total, Warmup: sz.Warmup, Seed: r.seed}
	tabSpan := r.rec.begin("tables", r.body)
	tables := make([]experiments.Table, 0, len(gens))
	for _, g := range gens {
		sp := r.rec.begin("Generator.Run/"+g.ID, tabSpan)
		r.res.Attempted++
		t := g.Run(cfg.ForTable(g.ID))
		d := r.rec.end(sp)
		if r.traced {
			r.res.Counters["experiments.table_s."+g.ID] = d
		}
		tables = append(tables, t)
	}
	tablesS := r.rec.end(tabSpan)
	sp := r.rec.begin("RunSweepTables", r.body)
	sweep, info, err := experiments.RunSweepTables(cfg, variants, experiments.SweepOptions{})
	sweepS := r.rec.end(sp)
	r.res.Attempted += info.Variants * info.Protocols
	if err != nil {
		return err
	}
	if err := r.stopBody(); err != nil {
		return err
	}

	for _, t := range append(tables, sweep...) {
		r.hash(t.Render())
	}
	r.res.Detail["tables_s"] = tablesS
	r.res.Detail["sweep_s"] = sweepS
	if r.traced {
		r.res.Counters["experiments.sweep_warmups"] = float64(info.Warmups)
		r.res.Counters["experiments.sweep_forks"] = float64(info.Forks)
		paperCounts(r, cfg, gens, tables)
	}
	return nil
}

// paperCounts reads the tables' counters in a second, untimed pass with a
// metrics sink attached, the only public source of their engine and MAC
// counters. Observing every MAC event would skew the profiled pass. The
// sink is passive, so the second pass must render the same tables.
func paperCounts(r *rep, cfg experiments.RunConfig, gens []experiments.Generator, tables []experiments.Table) {
	sink := metrics.NewSink()
	cfg.Metrics = sink
	var c layerCounts
	for i, g := range gens {
		t := g.Run(cfg.ForTable(g.ID))
		if t.Render() != tables[i].Render() {
			r.check("paper: %s renders differently with a metrics sink attached", g.ID)
		}
		for _, col := range t.Columns {
			c.addPhy(col.Results.Medium)
		}
	}
	for _, label := range sink.Labels() {
		rm := sink.Run(label)
		c.addEngine(rm.Engine.EventsFired, rm.Engine.MaxEventQueue)
		for _, st := range rm.Stations {
			c.addMAC(st.MACStats)
		}
	}
	c.report(r.res.Counters)
}

// runBuilding simulates one clustered 500-station building with MACAW on
// the serial engine, advancing it in short slices the way a stepping
// front end does.
func runBuilding(r *rep, sz buildingSize) error {
	l := topo.Random(topo.RandomSpec{N: sz.N, Clustered: true, Seed: r.seed})
	n := core.NewNetwork(r.seed)
	sp := r.rec.begin("Layout.Build", 0)
	err := l.Build(n, core.MACAWFactory(macaw.DefaultOptions()))
	r.rec.end(sp)
	if err != nil {
		return err
	}
	r.setupDone()

	if err := r.startBody(); err != nil {
		return err
	}
	n.Start(sz.Total, sz.Warmup)
	for t := n.Sim.Now(); t < n.End(); {
		t = min(t+sz.Slice, n.End())
		sp := r.rec.begin("RunTo", r.body)
		r.res.Attempted++
		n.RunTo(t)
		r.rec.end(sp)
	}
	sp = r.rec.begin("Collect", r.body)
	res := n.Collect()
	r.rec.end(sp)
	if err := r.stopBody(); err != nil {
		return err
	}

	r.hash(res.String())
	r.hash(fmt.Sprintf("events %d\n", n.Sim.Fired()))
	if res.TotalPPS() <= 0 {
		r.check("building: no packet was delivered")
	}
	r.res.Detail["sim_s_per_host_s"] = sz.Total.Seconds() / r.res.WallS
	if r.traced {
		var c layerCounts
		c.addNetwork(n, res)
		c.report(r.res.Counters)
	}
	return nil
}

// runCity simulates a 10 000-station city on the sharded engine, one shard
// per GOMAXPROCS.
func runCity(r *rep, sz citySize) error {
	l := topo.Random(topo.RandomSpec{N: sz.N, Clustered: true, AreaFt: sz.AreaFt, Seed: r.seed})
	bp, err := l.Blueprint(core.MACAWFactory(macaw.DefaultOptions()))
	if err != nil {
		return err
	}
	bp.Seed = r.seed
	sp := r.rec.begin("Blueprint.Partition", 0)
	labels, _, cutoff, _ := bp.Partition()
	partitionS := r.rec.end(sp)
	r.setupDone()

	if err := r.startBody(); err != nil {
		return err
	}
	run := r.rec.begin("Blueprint.Run", r.body)
	var (
		mu     sync.Mutex
		c      layerCounts
		compID = make(map[int]int) // component -> its span
	)
	bp.Instrument = func(n *core.Network, comp int) func(core.Results) {
		id := r.rec.begin(fmt.Sprintf("component/%d", comp), run)
		return func(res core.Results) {
			r.rec.end(id)
			mu.Lock()
			defer mu.Unlock()
			compID[comp] = id
			if r.traced {
				c.addNetwork(n, res)
			}
		}
	}
	res, info, err := bp.Run(sz.Total, sz.Warmup, r.width)
	r.rec.end(run)
	r.res.Attempted = max(info.Components, 1)
	if err != nil {
		return err
	}
	if err := r.stopBody(); err != nil {
		return err
	}

	r.hash(res.String())
	r.hash(fmt.Sprintf("components %d\n", info.Components))
	if res.TotalPPS() <= 0 {
		r.check("city: no packet was delivered")
	}
	r.res.Detail["sim_s_per_host_s"] = sz.Total.Seconds() / r.res.WallS
	if r.traced {
		c.report(r.res.Counters)
		r.res.Counters["core.components"] = float64(info.Components)
		r.res.Counters["core.partition_s"] = partitionS
		r.res.Counters["core.shard_imbalance"] = shardImbalance(r.rec.finished(), compID, labels, bp, cutoff, info.Workers)
	}
	return nil
}

// shardImbalance is the busiest shard worker's busy time over the mean.
// Components are assigned to workers the way the sharded engine assigns
// them: by the grid cell of each component's first station.
func shardImbalance(spans []span, compID map[int]int, labels []int, bp core.Blueprint, cutoff float64, workers int) float64 {
	if workers <= 1 {
		return 1
	}
	first := make(map[int]int)
	for i, l := range labels {
		if _, ok := first[l]; !ok {
			first[l] = i
		}
	}
	busy := make([]float64, workers)
	for comp, id := range compID {
		s := spans[id-1]
		anchor := geom.CellOf(bp.Stations[first[comp]].Pos, cutoff)
		busy[geom.ShardOfCell(anchor, workers)] += float64(s.EndNs - s.StartNs)
	}
	var sum, top float64
	for _, b := range busy {
		sum += b
		top = max(top, b)
	}
	return ratio(top, sum/float64(workers))
}

// campaignManifest is the campaign the workload submits: every paper table
// at Seeds consecutive seeds from seed, audited.
func campaignManifest(name string, seed int64, sz campaignSize) []byte {
	seeds := make([]int64, sz.Seeds)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	m := campaign.Manifest{Name: name, TotalS: sz.TotalS, WarmupS: sz.WarmupS, Audit: true}
	for _, g := range experiments.All() {
		m.Runs = append(m.Runs, campaign.RunSpec{Table: g.ID, Seeds: seeds})
	}
	return m.Encode()
}

// fetchResults reads a campaign's JSONL results stream through the HTTP
// handler, in process, waiting until the campaign settles.
func fetchResults(srv http.Handler, id string) ([]byte, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/campaigns/"+id+"/results?wait=1", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("results of %s: HTTP %d: %s", id, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// runCampaign drives the campaign engine in process: a cold campaign on a
// fresh state directory, renamed resubmissions served from the result
// cache by one client in a closed loop, then a drain and a restart on the
// same directory.
func runCampaign(r *rep, sz campaignSize) error {
	dir, err := os.MkdirTemp(r.tmp, "campaign-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// The first engine is unreachable once campaignServe returns, so the
	// restart does not hold two engines' results at once.
	stream, id, err := campaignServe(r, sz, dir)
	if err != nil {
		return err
	}

	restart := r.rec.begin("restart", r.body)
	eng, err := campaign.NewEngine(dir, r.width)
	if err != nil {
		return err
	}
	defer eng.Drain()
	for _, s := range eng.Campaigns() {
		if c, ok := eng.Campaign(s.ID); ok {
			<-c.Done()
		}
	}
	r.res.Detail["restart_s"] = r.rec.end(restart)
	for _, s := range eng.Campaigns() {
		r.res.Attempted += s.Jobs
		r.res.Failed += s.Failed + s.Cancelled
		if r.traced {
			r.res.Counters["campaign.cache_hits"] += float64(s.CacheHits)
		}
	}
	after, err := fetchResults(campaign.NewServer(eng), id)
	if err != nil {
		return err
	}
	if err := r.stopBody(); err != nil {
		return err
	}
	if !bytes.Equal(after, stream) {
		r.check("campaign: the restarted engine streamed different results from the cold campaign")
	}
	r.hash(string(stream))
	if r.traced {
		var c layerCounts
		docBytes, err := streamCounts(stream, &c)
		if err != nil {
			return err
		}
		c.report(r.res.Counters)
		r.res.Counters["metrics.doc_bytes"] = float64(docBytes)
	}
	return nil
}

// campaignServe sets up the first engine, then runs the cold campaign and
// the resubmissions on it and drains it. It returns the cold campaign's
// results stream and id.
func campaignServe(r *rep, sz campaignSize, dir string) ([]byte, string, error) {
	eng, err := campaign.NewEngine(dir, r.width)
	if err != nil {
		return nil, "", err
	}
	defer eng.Drain()
	man, err := campaign.DecodeManifest(bytes.NewReader(campaignManifest("cold", r.seed, sz)))
	if err != nil {
		return nil, "", err
	}
	r.setupDone()

	if err := r.startBody(); err != nil {
		return nil, "", err
	}
	srv := campaign.NewServer(eng)
	written := procWritten()
	cold := r.rec.begin("cold", r.body)
	sp := r.rec.begin("Submit", cold)
	c, _, err := eng.Submit(man)
	r.rec.end(sp)
	if err != nil {
		return nil, "", err
	}
	sp = r.rec.begin("Done", cold)
	<-c.Done()
	r.rec.end(sp)
	sp = r.rec.begin("results", cold)
	stream, err := fetchResults(srv, c.ID)
	r.rec.end(sp)
	if err != nil {
		return nil, "", err
	}
	coldS := r.rec.end(cold)
	written = procWritten() - written
	st := c.Status()
	r.res.Attempted += st.Jobs
	r.res.Failed += st.Failed + st.Cancelled
	r.res.Detail["cold_runs_per_s"] = float64(st.Jobs) / coldS

	var submitMs, resubMs []float64
	hits := 0
	for i := 1; i <= sz.Resubmits; i++ {
		re := r.rec.begin("resubmit", r.body)
		m, err := campaign.DecodeManifest(bytes.NewReader(campaignManifest(fmt.Sprintf("resubmit-%d", i), r.seed, sz)))
		if err != nil {
			return nil, "", err
		}
		sp := r.rec.begin("Submit", re)
		rc, _, err := eng.Submit(m)
		submitMs = append(submitMs, r.rec.end(sp)*1e3)
		if err != nil {
			return nil, "", err
		}
		sp = r.rec.begin("results", re)
		got, err := fetchResults(srv, rc.ID)
		r.rec.end(sp)
		if err != nil {
			return nil, "", err
		}
		resubMs = append(resubMs, r.rec.end(re)*1e3)
		rst := rc.Status()
		r.res.Attempted += rst.Jobs
		r.res.Failed += rst.Failed + rst.Cancelled
		hits += rst.CacheHits
		if rst.CacheHits != rst.Jobs {
			r.check("campaign: resubmission %d: %d of %d jobs served from the cache", i, rst.CacheHits, rst.Jobs)
		}
		if !bytes.Equal(got, stream) {
			r.check("campaign: resubmission %d streamed different results from the cold campaign", i)
		}
	}
	// A tail percentile needs at least ten samples beyond it.
	p75, beyond := stat.NearestRank(resubMs, 75)
	if beyond < 10 {
		return nil, "", fmt.Errorf("%d resubmissions leave %d samples beyond p75, fewer than ten", len(resubMs), beyond)
	}
	r.res.Detail["resubmit_p50_ms"], _ = stat.NearestRank(resubMs, 50)
	r.res.Detail["resubmit_p75_ms"] = p75
	r.res.LatencySamples = len(resubMs)
	if r.traced {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.res.Counters["campaign.live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
		fi, err := os.Stat(filepath.Join(dir, "cache.bin"))
		if err != nil {
			return nil, "", err
		}
		r.res.Counters["snapshot.ledger_bytes"] = float64(fi.Size())
		r.res.Counters["snapshot.bytes_written"] = float64(written)
		r.res.Counters["snapshot.write_amplification"] = ratio(float64(written), float64(fi.Size()))
		r.res.Counters["campaign.submit_ms"] = stat.Median(submitMs)
		r.res.Counters["campaign.cache_hits"] += float64(hits)
	}
	sp = r.rec.begin("Drain", r.body)
	eng.Drain()
	r.rec.end(sp)
	return stream, c.ID, nil
}

// streamCounts adds the engine and MAC counters of every metrics document
// in a JSONL results stream to c and returns the documents' total size.
func streamCounts(stream []byte, c *layerCounts) (int, error) {
	type runDoc struct {
		Engine   metrics.EngineMetrics `json:"engine"`
		Stations map[string]struct {
			MACStats mac.Stats `json:"mac_stats"`
		} `json:"stations"`
	}
	size := 0
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var res struct {
			Metrics map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(line, &res); err != nil {
			return 0, fmt.Errorf("results stream: %w", err)
		}
		for label, raw := range res.Metrics {
			size += len(raw)
			var doc runDoc
			if err := json.Unmarshal(raw, &doc); err != nil {
				return 0, fmt.Errorf("metrics document %s: %w", label, err)
			}
			c.addEngine(doc.Engine.EventsFired, doc.Engine.MaxEventQueue)
			for _, st := range doc.Stations {
				c.addMAC(st.MACStats)
			}
		}
	}
	return size, nil
}

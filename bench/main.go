// Command bench is the repository benchmark. It runs four workloads —
// paper, building, city and campaign — each repetition in a fresh child
// process, reports every metric over the repetitions with its median and
// quartiles, checks every output, and with -trace 1 runs the
// separate traced run that gives the per-layer metrics. See README.md.
//
//	go run . -workload paper -seed 1
//	go run . -trace 1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The full result, with the environment stamp, goes to
// -out as JSON. The exit code is 1 when any output check fails.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"macaw/bench/stat"
)

// expectedJSON holds the seed-1 output digest of every workload, keyed by
// "<Go version>/<GOARCH>" and then by workload.
//
//go:embed expected.json
var expectedJSON []byte

// childTimeout bounds one repetition; a run must finish within 180 s.
const childTimeout = 170 * time.Second

// reps is the least number of untraced repetitions of each workload. A run
// starts further rounds while -seconds have not passed, so BENCHMARK.json's
// run_seconds can raise the count.
const reps = 3

type options struct {
	workloads []string
	seed      int64
	seconds   int
	trace     bool
	out       string

	// Set only on the command line of a child repetition.
	child    bool
	launched int64
	rep      int
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "paper,building,city,campaign", "comma-separated workloads to run")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 0, "keep starting repetitions until this many seconds have passed")
	trace := fs.Int("trace", 0, "1 runs the traced run that reports the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for result JSON, spans and CPU profiles")
	fs.BoolVar(&o.child, "child", false, "run one repetition and print it as JSON (used by the benchmark itself)")
	fs.Int64Var(&o.launched, "launched", 0, "launch time of a child repetition in Unix nanoseconds")
	fs.IntVar(&o.rep, "rep", 0, "index of a child repetition")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	o.trace = *trace == 1
	if o.seconds < 0 {
		return o, errors.New("-seconds must be at least 0")
	}
	for _, n := range strings.Split(*names, ",") {
		if _, ok := workloadByName(n); !ok {
			return o, fmt.Errorf("unknown workload %q (known: paper, building, city, campaign)", n)
		}
		o.workloads = append(o.workloads, n)
	}
	if o.child && len(o.workloads) != 1 {
		return o, errors.New("a child repetition runs exactly one workload")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.child {
		os.Exit(childMain(o, os.Stdout))
	}
	os.Exit(parentMain(o, os.Stdout))
}

// childMain runs one repetition of one workload and prints its repResult.
func childMain(o options, stdout io.Writer) int {
	w, _ := workloadByName(o.workloads[0])
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	r := newRep(w.name, o.seed, o.trace, tmp, time.Unix(0, o.launched))
	r.profile = profilePath(o.out, w.name, o.seed, o.rep)
	if err := json.NewEncoder(stdout).Encode(r.run(w, fullSizes)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func profilePath(out, w string, seed int64, rep int) string {
	return filepath.Join(out, fmt.Sprintf("cpu-%s-seed%d-rep%d.pprof", w, seed, rep))
}

// runChild runs one repetition in a fresh process of this binary, one
// repetition at a time, and waits for the process to end. The process is
// killed when ctx is done.
func runChild(ctx context.Context, o options, w string, traced bool, rep int) repResult {
	exe, err := os.Executable()
	if err != nil {
		return failedRep(err)
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w, "-seed", strconv.FormatInt(o.seed, 10),
		"-trace", trace, "-out", o.out, "-rep", strconv.Itoa(rep),
		"-launched", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(width()))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return failedRep(fmt.Errorf("%s repetition %d: %w", w, rep, err))
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return failedRep(fmt.Errorf("%s repetition %d: reading its result: %w", w, rep, err))
	}
	return res
}

func failedRep(err error) repResult {
	return repResult{Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
}

// layerTimes runs `go tool pprof -traces` on a CPU profile and charges its
// samples to layers.
func layerTimes(ctx context.Context, profile string) (map[string]time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return attribute(&out)
}

// parentMain runs the repetitions, rotating across workloads so that a
// burst of noise on the host hits every workload rather than every
// repetition of one, then aggregates, checks and reports. An interrupt or
// termination stops the running repetition's process and ends the run
// without a result.
func parentMain(o options, stdout io.Writer) int {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runs := make(map[string]*workloadRuns)
	for _, w := range o.workloads {
		runs[w] = &workloadRuns{cpu: make(map[string]time.Duration)}
	}
	minRounds := reps
	if o.trace {
		minRounds = 1 // each round is an untraced and a traced repetition
	}
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < time.Duration(o.seconds)*time.Second; round++ {
		for _, w := range o.workloads {
			wr := runs[w]
			wr.untraced = append(wr.untraced, runChild(ctx, o, w, false, wr.next()))
			if !o.trace {
				continue
			}
			rep := wr.next()
			res := runChild(ctx, o, w, true, rep)
			if len(res.Errors) == 0 {
				times, err := layerTimes(ctx, profilePath(o.out, w, o.seed, rep))
				if err != nil {
					res.Errors = append(res.Errors, err.Error())
				}
				for l, d := range times {
					wr.cpu[l] += d
				}
			}
			wr.traced = append(wr.traced, res)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "bench: interrupted")
			return 1
		}
	}

	doc := resultDoc{Schema: resultSchema, Env: stamp(o.seed, o.seconds), Trace: o.trace, Correct: true,
		Workloads: make(map[string]*workloadResult)}
	for _, w := range o.workloads {
		wres := aggregate(w, o.seed, runs[w])
		doc.Workloads[w] = wres
		doc.Correct = doc.Correct && len(wres.CheckFailures) == 0
	}
	printHuman(stdout, o, &doc)
	if err := writeOutputs(o, &doc, runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(contractLine(o, &doc))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !doc.Correct {
		return 1
	}
	return 0
}

// workloadRuns gathers one workload's repetitions in the parent.
type workloadRuns struct {
	untraced, traced []repResult
	cpu              map[string]time.Duration // traced CPU time per layer
	reps             int
}

func (wr *workloadRuns) next() int {
	wr.reps++
	return wr.reps
}

const resultSchema = "macaw-bench/v1"

// resultDoc is the JSON result of one invocation.
type resultDoc struct {
	Schema    string                     `json:"schema"`
	Env       envStamp                   `json:"env"`
	Trace     bool                       `json:"trace"`
	Correct   bool                       `json:"correct"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's aggregate over its repetitions.
type workloadResult struct {
	Reps       int    `json:"reps"`
	TracedReps int    `json:"traced_reps"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	Digest     string `json:"digest"`
	// LatencySamples is the number of requests each repetition's latency
	// percentiles are taken over.
	LatencySamples int                     `json:"latency_samples,omitempty"`
	CheckFailures  []string                `json:"check_failures,omitempty"`
	Metrics        map[string]metricResult `json:"metrics"`
	Layers         map[string]metricResult `json:"layers,omitempty"`
}

// metricResult is one metric's samples, one per repetition, their summary,
// the value reported, and the bound compare judges it by. The value is the
// median, except for set-up, which is the shortest sample, for a peak,
// which is the highest, and for the failed share, which is over every op
// of the run.
type metricResult struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Floor  float64 `json:"floor,omitempty"`
	stat.Summary
	Samples []float64 `json:"samples"`
}

func newMetric(d metricDef, samples []float64) metricResult {
	m := metricResult{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Floor: d.Floor,
		Summary: stat.Summarize(samples), Samples: samples}
	m.Value = m.Median
	return m
}

// aggregate summarizes a workload's repetitions and runs its output
// checks. Any failed check fails every operation of the workload.
func aggregate(w string, seed int64, wr *workloadRuns) *workloadResult {
	res := &workloadResult{Reps: len(wr.untraced), TracedReps: len(wr.traced), Metrics: make(map[string]metricResult)}
	all := append(append([]repResult(nil), wr.untraced...), wr.traced...)
	for _, r := range all {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.CheckFailures = append(res.CheckFailures, r.Errors...)
		if r.Digest != "" && res.Digest == "" {
			res.Digest = r.Digest
		}
		res.LatencySamples = max(res.LatencySamples, r.LatencySamples)
	}
	for i, r := range all {
		if r.Digest != res.Digest {
			res.CheckFailures = append(res.CheckFailures,
				fmt.Sprintf("%s: repetition %d digest %s differs from %s", w, i+1, r.Digest, res.Digest))
		}
	}
	if seed == 1 {
		if err := checkExpected(w, res.Digest); err != nil {
			res.CheckFailures = append(res.CheckFailures, err.Error())
		}
	}
	get := map[string]func(r repResult) float64{
		"alloc_mb": func(r repResult) float64 { return r.AllocMB },
		"setup_s":  func(r repResult) float64 { return r.SetupS },
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = newMetric(d, samplesOf(wr.untraced, get[d.Name]))
	}
	// The median set-up of a run follows the host's speed: between sets of
	// runs of the same code it drifted by up to 50%, the shortest by up to
	// 31%, and by 22% or less except on the city.
	setup := res.Metrics["setup_s"]
	setup.Value = setup.Samples[0]
	for _, x := range setup.Samples {
		setup.Value = min(setup.Value, x)
	}
	res.Metrics["setup_s"] = setup
	peak := newMetric(peakRSS, samplesOf(wr.untraced, func(r repResult) float64 { return r.PeakRSSMB }))
	for _, x := range peak.Samples {
		peak.Value = max(peak.Value, x)
	}
	res.Metrics[peakRSS.Name] = peak
	for _, d := range details[w] {
		res.Metrics[d.Name] = newMetric(d, samplesOf(wr.untraced, func(r repResult) float64 { return r.Detail[d.Name] }))
	}

	if len(wr.traced) > 0 {
		res.Layers = layerMetrics(w, wr, res)
	}
	if len(res.CheckFailures) > 0 {
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
	}
	failed := newMetric(failedShare, samplesOf(all, func(r repResult) float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }))
	failed.Value = ratio(float64(res.Failed), float64(res.Attempted))
	res.Metrics[failedShare.Name] = failed
	return res
}

func samplesOf(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// layerMetrics derives the per-layer metrics from the traced repetitions,
// and checks that their deterministic counters agree.
func layerMetrics(w string, wr *workloadRuns, res *workloadResult) map[string]metricResult {
	first := wr.traced[0].Counters
	for i, r := range wr.traced[1:] {
		for _, name := range deterministic {
			if r.Counters[name] != first[name] {
				res.CheckFailures = append(res.CheckFailures, fmt.Sprintf("%s: traced repetition %d counts %s = %g, repetition 1 counted %g",
					w, i+2, name, r.Counters[name], first[name]))
			}
		}
	}
	var total time.Duration
	for _, d := range wr.cpu {
		total += d
	}
	untracedWall := stat.Median(samplesOf(wr.untraced, func(r repResult) float64 { return r.WallS }))
	tracedWall := stat.Median(samplesOf(wr.traced, func(r repResult) float64 { return r.WallS }))
	out := make(map[string]metricResult)
	for _, d := range perLayer {
		var samples []float64
		switch {
		case d.Name == "sim.ns_per_event":
			samples = []float64{ratio(untracedWall*1e9, first["sim.events"])}
		case d.Name == "trace_overhead":
			samples = []float64{ratio(tracedWall, untracedWall) - 1}
		case strings.HasSuffix(d.Name, ".cpu_share"):
			samples = []float64{ratio(float64(wr.cpu[strings.TrimSuffix(d.Name, ".cpu_share")]), float64(total))}
		default:
			samples = samplesOf(wr.traced, func(r repResult) float64 { return r.Counters[d.Name] })
		}
		out[d.Name] = newMetric(d, samples)
	}
	return out
}

// checkExpected compares a seed-1 digest with the one recorded for this
// toolchain. A toolchain with no recorded digests fails closed.
func checkExpected(w, digest string) error {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	key := runtime.Version() + "/" + runtime.GOARCH
	want, ok := all[key][w]
	if !ok {
		return fmt.Errorf("%s: no seed-1 digest recorded for %s in expected.json; this run's is %s", w, key, digest)
	}
	if want != digest {
		return fmt.Errorf("%s: seed-1 digest %s, expected.json records %s for %s", w, digest, want, key)
	}
	return nil
}

// printHuman prints every metric with its unit, spread and sample count.
func printHuman(out io.Writer, o options, doc *resultDoc) {
	e := doc.Env
	fmt.Fprintf(out, "macaw bench: %s %s/%s nproc=%d gomaxprocs=%d seed=%d seconds=%d trace=%t",
		e.Go, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.Seed, e.Seconds, doc.Trace)
	if e.Revision != "" {
		fmt.Fprintf(out, " rev=%s modified=%t", e.Revision, e.Modified)
	}
	fmt.Fprintln(out)
	for _, w := range o.workloads {
		r := doc.Workloads[w]
		fmt.Fprintf(out, "\n%s: %d repetitions (%d traced), %d ops attempted, %d failed, digest %s\n",
			w, r.Reps, r.TracedReps, r.Attempted, r.Failed, r.Digest)
		printMetrics(out, r.Metrics)
		if n := r.LatencySamples; n > 0 {
			fmt.Fprintf(out, "  latency percentiles are over %d samples per repetition\n", n)
		}
		if len(r.Layers) > 0 {
			fmt.Fprintln(out, "  per layer (traced):")
			printMetrics(out, r.Layers)
		}
		for _, f := range r.CheckFailures {
			fmt.Fprintf(out, "  CHECK FAILED: %s\n", f)
		}
	}
}

func printMetrics(out io.Writer, ms map[string]metricResult) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(out, "  %-32s %14.6g %-16s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d\n", n, m.Value, m.Unit, m.Median, m.Q1, m.Q3, m.N)
	}
}

// writeOutputs writes the result JSON and, for a traced run, the spans.
func writeOutputs(o options, doc *resultDoc, runs map[string]*workloadRuns) error {
	base := fmt.Sprintf("%s-seed%d", strings.Join(o.workloads, "_"), o.seed)
	if o.trace {
		base += "-trace"
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "result-"+base+".json"), b, 0o644); err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	spans := make(map[string][][]span)
	for w, wr := range runs {
		for _, r := range wr.traced {
			spans[w] = append(spans[w], r.Spans)
		}
	}
	b, err = json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, "spans-"+base+".json"), b, 0o644)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output: end-to-end metrics of
// an untraced run, per-layer metrics of a traced one. With several
// workloads each metric name is prefixed by its workload.
func contractLine(o options, doc *resultDoc) any {
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: doc.Correct, Metrics: make(map[string]valueUnit)}
	for _, w := range o.workloads {
		r := doc.Workloads[w]
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		defs, ms := endToEnd, r.Metrics
		if o.trace {
			defs, ms = perLayer, r.Layers
		}
		for _, d := range defs {
			name := d.Name
			if len(o.workloads) > 1 {
				name = w + "." + name
			}
			line.Metrics[name] = valueUnit{Value: ms[d.Name].Value, Unit: d.Unit}
		}
	}
	return line
}

// Command compare sets two sets of benchmark results side by side, a parent
// and a change, each a directory of the result JSON files the benchmark
// writes. For every workload and metric it prints each side's median and
// quartiles over runs, the share of seed-paired runs the change won, and a
// verdict against the metric's bound, which each result file records (the
// end-to-end bounds are those of BENCHMARK.json):
//
//	go run ./compare PARENT_DIR CHANGE_DIR
//
// A verdict is improved, unchanged, worse, or unresolved when the parent's
// own interquartile spread is wider than the bound. compare refuses to
// compare sides whose output digests differ for a workload and seed, and
// exits 1 then or when any metric is worse.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"macaw/bench/stat"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare PARENT_DIR CHANGE_DIR")
		os.Exit(2)
	}
	worse, err := run(os.Stdout, os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	if worse {
		os.Exit(1)
	}
}

// rule is how one metric is judged, as the benchmark recorded it.
type rule struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Floor  float64 `json:"floor"`
}

// resultDoc is the part of a benchmark result file compare reads.
type resultDoc struct {
	Schema    string               `json:"schema"`
	Trace     bool                 `json:"trace"`
	Env       struct{ Seed int64 } `json:"env"`
	Workloads map[string]struct {
		Digest  string `json:"digest"`
		Metrics map[string]struct {
			rule
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// runValue is one run's value of one metric, tagged with its seed.
type runValue struct {
	seed  int64
	value float64
}

// side holds one side's runs by workload and metric.
type side struct {
	values  map[string]map[string][]runValue // workload -> metric -> runs
	rules   map[string]rule                  // metric -> how it is judged
	digests map[string]map[int64]string      // workload -> seed -> digest
}

// load reads every untraced result file in dir.
func load(dir string) (*side, error) {
	files, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	s := &side{values: map[string]map[string][]runValue{}, rules: map[string]rule{}, digests: map[string]map[int64]string{}}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc resultDoc
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if doc.Schema != "macaw-bench/v1" || doc.Trace {
			continue
		}
		seed := doc.Env.Seed
		for w, wr := range doc.Workloads {
			if s.values[w] == nil {
				s.values[w] = map[string][]runValue{}
				s.digests[w] = map[int64]string{}
			}
			s.digests[w][seed] = wr.Digest
			for name, m := range wr.Metrics {
				s.values[w][name] = append(s.values[w][name], runValue{seed, m.Value})
				s.rules[name] = m.rule
			}
		}
	}
	if len(s.values) == 0 {
		return nil, fmt.Errorf("%s holds no untraced benchmark results", dir)
	}
	return s, nil
}

func run(out io.Writer, parentDir, changeDir string) (anyWorse bool, err error) {
	parent, err := load(parentDir)
	if err != nil {
		return false, err
	}
	change, err := load(changeDir)
	if err != nil {
		return false, err
	}
	if err := sameOutputs(parent, change); err != nil {
		return false, err
	}

	fmt.Fprintf(out, "%-9s %-17s %-16s %-36s %-36s %6s  %s\n", "workload", "metric", "unit",
		"parent median [q1, q3] (n)", "change median [q1, q3] (n)", "won", "verdict")
	for _, w := range sortedKeys(parent.values) {
		for _, name := range sortedKeys(parent.values[w]) {
			p, c := parent.values[w][name], change.values[w][name]
			if len(c) == 0 {
				continue
			}
			r := parent.rules[name]
			v := verdict(p, c, r)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(out, "%-9s %-17s %-16s %-36s %-36s %5.0f%%  %s\n", w, name, r.Unit,
				describe(vals(p)), describe(vals(c)), 100*wonShare(p, c, r.Better != "higher"), v)
		}
	}
	return anyWorse, nil
}

// sameOutputs refuses two sides whose runs of a workload at one seed
// produced different outputs: their timings would not measure the same
// work.
func sameOutputs(parent, change *side) error {
	var diffs []string
	for w, seeds := range parent.digests {
		for seed, d := range seeds {
			if cd, ok := change.digests[w][seed]; ok && cd != d {
				diffs = append(diffs, fmt.Sprintf("%s seed %d: parent %s, change %s", w, seed, d, cd))
			}
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return errors.New("output digests differ, refusing to compare:\n  " + strings.Join(diffs, "\n  "))
	}
	return nil
}

func vals(rs []runValue) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.value
	}
	return out
}

// verdict judges the change against the parent. The slack a metric may
// worsen by is its bound times the parent's median, or its floor when that
// is larger. A metric whose parent spread is wider than the slack is
// unresolved, unless every change run reads better than every parent run.
// A gain needs the change to win nine tenths of the seed-paired runs and
// the medians to differ by more than the parent's interquartile spread.
func verdict(p, c []runValue, r rule) string {
	lower := r.Better != "higher"
	ps, cs := stat.Summarize(vals(p)), stat.Summarize(vals(c))
	sign := 1.0
	if !lower {
		sign = -1
	}
	worseBy := sign * (cs.Median - ps.Median)
	if r.Bound == 0 && r.Floor == 0 {
		// Any increase counts, so one failing run must not hide behind
		// the median: judge the mean over all runs.
		worseBy = sign * (mean(vals(c)) - mean(vals(p)))
	}
	slack := max(r.Bound*math.Abs(ps.Median), r.Floor)
	iqr := ps.Q3 - ps.Q1
	switch {
	case iqr > slack && !allBetter(vals(p), vals(c), lower):
		return "unresolved"
	case worseBy > slack:
		return "worse"
	case worseBy < 0 && -worseBy > iqr && wonShare(p, c, lower) >= 0.9:
		return "improved"
	default:
		return "unchanged"
	}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func allBetter(p, c []float64, lower bool) bool {
	for _, x := range p {
		for _, y := range c {
			if !better(y, x, lower) {
				return false
			}
		}
	}
	return true
}

func better(x, than float64, lower bool) bool {
	if lower {
		return x < than
	}
	return x > than
}

// wonShare is the share of seed-paired runs the change won; ties count for
// neither side.
func wonShare(p, c []runValue, lower bool) float64 {
	bySeed := make(map[int64]float64)
	for _, r := range p {
		bySeed[r.seed] = r.value
	}
	pairs, won := 0, 0
	for _, r := range c {
		pv, ok := bySeed[r.seed]
		if !ok {
			continue
		}
		pairs++
		if better(r.value, pv, lower) {
			won++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(won) / float64(pairs)
}

func describe(xs []float64) string {
	s := stat.Summarize(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

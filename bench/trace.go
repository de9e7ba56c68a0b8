package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded on the benchmark's side of
// the call. Spans of one repetition share a trace id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the repetition began
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// recorder keeps a repetition's spans in memory.
// Shard goroutines record component spans concurrently, hence the lock.
type recorder struct {
	trace string
	t0    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(trace string) *recorder { return &recorder{trace: trace, t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: r.trace, Name: name, StartNs: now, EndNs: now})
	return len(r.spans)
}

// end closes span id and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = now
	return float64(now-s.StartNs) / 1e9
}

// finished returns the recorded spans with self times filled in.
func (r *recorder) finished() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	setSelfTimes(out)
	return out
}

// setSelfTimes sets each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap when they
// ran concurrently; the covered part counts once.
func setSelfTimes(spans []span) {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].StartNs < ks[b].StartNs })
		var covered int64
		cur := s.StartNs // everything before cur is already counted
		for _, k := range ks {
			lo, hi := max(k.StartNs, cur), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
}

// layers lists the layers CPU time is charged to, in report order. The
// last, runtime, takes every sample with no repository frame.
var layers = []string{"sim", "phy", "mac", "transport", "core", "experiments", "oracle", "metrics", "campaign", "snapshot", "runtime"}

// layerOf maps each package under macaw/internal/ to its layer. Packages a
// layer is built from but that no one names on their own are folded into
// it: geom is the medium's neighbourhood index, frame and backoff belong to
// the MAC, stats holds the streams' counters, topo builds core networks,
// fault serves the experiments' chaos table and trace is an observer like
// metrics.
var layerOf = map[string]string{
	"sim": "sim", "phy": "phy", "geom": "phy",
	"mac": "mac", "backoff": "mac", "frame": "mac",
	"transport": "transport", "traffic": "transport", "stats": "transport",
	"core": "core", "topo": "core",
	"experiments": "experiments", "fault": "experiments",
	"oracle": "oracle", "metrics": "metrics", "trace": "metrics",
	"campaign": "campaign", "snapshot": "snapshot",
}

// frameLayer returns the layer of one stack frame's function, or "" when
// the function is not in a repository package of a known layer.
func frameLayer(fn string) string {
	const prefix = "macaw/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "/."); i >= 0 {
		pkg = pkg[:i]
	}
	return layerOf[pkg]
}

// attribute reads the output of `go tool pprof -traces` and returns the
// CPU time in each layer. A sample is charged to its innermost frame in a
// repository package, so runtime and standard-library frames count toward
// the nearest repository frame that encloses them; a sample with no such
// frame is charged to runtime.
func attribute(r io.Reader) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	var (
		value  time.Duration
		open   bool // the current sample is not charged yet
		first  bool // the next line starts a sample
		header = true
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-----------+") {
			if open {
				out["runtime"] += value
			}
			open, first, header = false, true, false
			continue
		}
		if header || line == "" {
			continue
		}
		fn := strings.TrimSuffix(line, " (inline)")
		if first {
			// A sample's first line holds its value, then the leaf frame.
			v, rest, ok := strings.Cut(fn, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %v", v, err)
			}
			value, open, first, fn = d, true, false, strings.TrimSpace(rest)
		}
		if open {
			if l := frameLayer(fn); l != "" {
				out[l] += value
				open = false
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	if open {
		out["runtime"] += value
	}
	return out, nil
}

// Package metrics is the simulation-time observability layer: a registry of
// counters, gauges, fixed-bucket histograms and bounded time-series sampled
// per station and per stream by a passive mac.Observer, snapshotted into a
// deterministic JSON document after a run.
//
// The package is strictly passive (DESIGN.md §12): collectors consume no
// randomness, schedule nothing, and transmit nothing, so an instrumented run
// is byte-identical to a bare one at any -jobs value. Every map in the JSON
// output is keyed by name and written in key order, so the document bytes
// are a pure function of the run.
package metrics

import (
	"math"
	"slices"
	"strconv"
)

// Counter is a monotonically increasing event count.
type Counter struct{ N int64 }

// Inc adds one.
func (c *Counter) Inc() { c.N++ }

// Add adds d.
func (c *Counter) Add(d int64) { c.N += d }

// MarshalJSON renders the bare number.
func (c *Counter) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, c.N, 10), nil }

// Gauge tracks the last, minimum and maximum of a sampled value.
type Gauge struct {
	Last float64 `json:"last"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int64   `json:"n"`
}

// Set records a sample.
func (g *Gauge) Set(v float64) {
	if g.N == 0 || v < g.Min {
		g.Min = v
	}
	if g.N == 0 || v > g.Max {
		g.Max = v
	}
	g.Last = v
	g.N++
}

// Histogram is a fixed-bucket histogram: Bounds are ascending upper bounds
// (a value v lands in the first bucket with v <= bound), and Counts has one
// extra overflow bucket for values above the last bound.
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// NewHistogram returns a histogram over the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// Mean returns the running mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile: the bound of
// the bucket in which the quantile falls (Max for the overflow bucket).
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// queueBounds, backoffBounds and delayBounds are the bucket bounds the
// collector's histograms share. Nothing writes them; QueueBuckets,
// BackoffBuckets and DelayBuckets hand out copies.
var (
	queueBounds   = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	backoffBounds = []float64{2, 4, 8, 16, 32, 64, 128}
	delayBounds   = func() []float64 {
		var b []float64
		for v := 0.001; v < 130; v *= 2 {
			b = append(b, v)
		}
		return b
	}()
)

// DelayBuckets returns the packet-delay bucket bounds in seconds: a
// geometric ladder from 1 ms to ~2 min, wide enough for the paper's
// saturated queues.
func DelayBuckets() []float64 { return slices.Clone(delayBounds) }

// QueueBuckets returns the queue-depth bucket bounds.
func QueueBuckets() []float64 { return slices.Clone(queueBounds) }

// BackoffBuckets returns bucket bounds for backoff-counter values (slots);
// the paper's counters live in [MinBO=2, MaxBO=64].
func BackoffBuckets() []float64 { return slices.Clone(backoffBounds) }

// Registry is a named bag of instruments with get-or-create accessors. The
// zero value is not useful; use NewRegistry. Its JSON form groups the
// instruments by kind, each map sorted by name.
type Registry struct {
	Counters   map[string]*Counter   `json:"counters,omitempty"`
	Gauges     map[string]*Gauge     `json:"gauges,omitempty"`
	Histograms map[string]*Histogram `json:"histograms,omitempty"`
	Series     map[string]*Series    `json:"series,omitempty"`
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		Counters:   make(map[string]*Counter),
		Gauges:     make(map[string]*Gauge),
		Histograms: make(map[string]*Histogram),
		Series:     make(map[string]*Series),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c := r.Counters[name]
	if c == nil {
		c = &Counter{}
		r.Counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.Gauges[name]
	if g == nil {
		g = &Gauge{}
		r.Gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := r.Histograms[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.Histograms[name] = h
	}
	return h
}

// TimeSeries returns the named series, creating it on first use.
func (r *Registry) TimeSeries(name string) *Series {
	s := r.Series[name]
	if s == nil {
		s = &Series{}
		r.Series[name] = s
	}
	return s
}

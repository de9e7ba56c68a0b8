// Package stats computes the throughput and fairness metrics the paper
// reports: per-stream packets per second over the post-warmup measurement
// window, Jain's fairness index, max-min spread, and per-second time series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"macaw/internal/sim"
)

// PPS converts a packet count over a window into packets per second.
func PPS(count int, window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(count) / window.Seconds()
}

// Jain returns Jain's fairness index (sum x)^2 / (n * sum x^2): 1.0 for a
// perfectly even allocation, 1/n when a single stream captures everything.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Spread returns max(xs) - min(xs); the paper reports "the maximum
// difference between throughput for any two streams in the same cell".
func Spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return hi - lo
}

// Total sums xs.
func Total(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Windowed counts events that fall inside a [warmup, end) measurement
// window.
type Windowed struct {
	warmup sim.Time
	end    sim.Time
	count  int
	total  int
}

// NewWindowed returns a counter measuring [warmup, end).
func NewWindowed(warmup, end sim.Time) Windowed {
	return Windowed{warmup: warmup, end: end}
}

// Record registers an event at time t.
func (w *Windowed) Record(t sim.Time) {
	w.total++
	if t >= w.warmup && t < w.end {
		w.count++
	}
}

// Count reports events inside the window; Total reports all events.
func (w *Windowed) Count() int { return w.count }

// Warmup returns the start of the measurement window.
func (w *Windowed) Warmup() sim.Time { return w.warmup }

// Total reports every recorded event regardless of window.
func (w *Windowed) Total() int { return w.total }

// PPS reports the in-window rate.
func (w *Windowed) PPS() float64 { return PPS(w.count, w.end-w.warmup) }

// TimeSeries buckets events into fixed-width bins for rate-over-time plots.
type TimeSeries struct {
	width   sim.Duration
	buckets []int
}

// NewTimeSeries returns a series with the given bucket width.
func NewTimeSeries(width sim.Duration) *TimeSeries {
	if width <= 0 {
		panic("stats: non-positive bucket width")
	}
	return &TimeSeries{width: width}
}

// Record registers an event at time t.
func (ts *TimeSeries) Record(t sim.Time) {
	i := int(t / ts.width)
	for len(ts.buckets) <= i {
		ts.buckets = append(ts.buckets, 0)
	}
	ts.buckets[i]++
}

// Buckets returns the per-bucket counts.
func (ts *TimeSeries) Buckets() []int { return ts.buckets }

// Rate returns the per-bucket rates in events/second.
func (ts *TimeSeries) Rate() []float64 {
	out := make([]float64, len(ts.buckets))
	for i, c := range ts.buckets {
		out[i] = PPS(c, ts.width)
	}
	return out
}

// FaultCounters aggregates fault-injection and watchdog activity over a run,
// so chaos tables can report fault exposure alongside throughput and
// fairness.
type FaultCounters struct {
	// Crashes and Restarts count node failure events.
	Crashes, Restarts int
	// BurstEpisodes counts bad-state episodes of burst-loss channels.
	BurstEpisodes int
	// LinkFaults counts asymmetric-link fault installations.
	LinkFaults int
	// Moves counts mobility-walk relocation steps.
	Moves int
	// WatchdogChecks counts liveness sweeps the watchdog completed.
	WatchdogChecks int
}

// Add accumulates o into f.
func (f *FaultCounters) Add(o FaultCounters) {
	f.Crashes += o.Crashes
	f.Restarts += o.Restarts
	f.BurstEpisodes += o.BurstEpisodes
	f.LinkFaults += o.LinkFaults
	f.Moves += o.Moves
	f.WatchdogChecks += o.WatchdogChecks
}

// String renders the counters compactly, omitting zero fields.
func (f FaultCounters) String() string {
	parts := make([]string, 0, 6)
	add := func(name string, v int) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("crashes", f.Crashes)
	add("restarts", f.Restarts)
	add("bursts", f.BurstEpisodes)
	add("linkfaults", f.LinkFaults)
	add("moves", f.Moves)
	add("checks", f.WatchdogChecks)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

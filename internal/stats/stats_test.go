package stats

import (
	"math"
	"testing"
	"testing/quick"

	"macaw/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPPS(t *testing.T) {
	if got := PPS(100, 2*sim.Second); !almost(got, 50) {
		t.Fatalf("PPS = %v", got)
	}
	if PPS(5, 0) != 0 {
		t.Fatal("PPS with zero window")
	}
}

func TestJain(t *testing.T) {
	if got := Jain([]float64{10, 10, 10}); !almost(got, 1) {
		t.Fatalf("equal allocation Jain = %v", got)
	}
	if got := Jain([]float64{30, 0, 0}); !almost(got, 1.0/3) {
		t.Fatalf("captured allocation Jain = %v", got)
	}
	if got := Jain(nil); got != 1 {
		t.Fatalf("empty Jain = %v", got)
	}
	if got := Jain([]float64{0, 0}); got != 1 {
		t.Fatalf("all-zero Jain = %v", got)
	}
}

// Property: Jain is scale-invariant and within [1/n, 1].
func TestQuickJainBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		j := Jain(xs)
		if j < 1/float64(len(xs))-1e-9 || j > 1+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7.5
		}
		return almost(j, Jain(scaled))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpreadTotalMedian(t *testing.T) {
	xs := []float64{3, 9, 5}
	if !almost(Spread(xs), 6) {
		t.Fatalf("Spread = %v", Spread(xs))
	}
	if !almost(Total(xs), 17) {
		t.Fatalf("Total = %v", Total(xs))
	}
	if !almost(Median(xs), 5) {
		t.Fatalf("Median = %v", Median(xs))
	}
	if !almost(Median([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("even-length median wrong")
	}
	if Spread(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty-input edge cases")
	}
}

func TestWindowed(t *testing.T) {
	w := NewWindowed(50*sim.Second, 150*sim.Second)
	w.Record(10 * sim.Second)  // before warmup
	w.Record(60 * sim.Second)  // inside
	w.Record(100 * sim.Second) // inside
	w.Record(150 * sim.Second) // at end: excluded
	if w.Count() != 2 || w.Total() != 4 {
		t.Fatalf("count=%d total=%d", w.Count(), w.Total())
	}
	if !almost(w.PPS(), 0.02) {
		t.Fatalf("PPS = %v", w.PPS())
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(1 * sim.Second)
	ts.Record(100 * sim.Millisecond)
	ts.Record(900 * sim.Millisecond)
	ts.Record(1500 * sim.Millisecond)
	ts.Record(3100 * sim.Millisecond)
	want := []int{2, 1, 0, 1}
	got := ts.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	rates := ts.Rate()
	if !almost(rates[0], 2) {
		t.Fatalf("rates = %v", rates)
	}
}

func TestTimeSeriesBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTimeSeries(0)
}

func TestFaultCountersStringAndAdd(t *testing.T) {
	var f FaultCounters
	if got := f.String(); got != "none" {
		t.Fatalf("zero counters = %q", got)
	}
	f.Add(FaultCounters{Crashes: 1, Moves: 3})
	f.Add(FaultCounters{Restarts: 1, Moves: 1, WatchdogChecks: 40})
	want := "crashes=1 restarts=1 moves=4 checks=40"
	if got := f.String(); got != want {
		t.Fatalf("counters = %q, want %q", got, want)
	}
}

package stat

import "testing"

// Reference values from Python's statistics.quantiles(xs, n=4), the
// quartiles the benchmark's acceptance spread is computed with.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs   []float64
		want Summary
	}{
		{[]float64{1, 2}, Summary{Q1: 0.75, Median: 1.5, Q3: 2.25, N: 2}},
		{[]float64{3, 1, 2}, Summary{Q1: 1, Median: 2, Q3: 3, N: 3}},
		{[]float64{1, 2, 3, 4}, Summary{Q1: 1.25, Median: 2.5, Q3: 3.75, N: 4}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, Summary{Q1: 2.75, Median: 5.5, Q3: 8.25, N: 10}},
		{[]float64{5.5, 0.25, 9, 2, 7.75}, Summary{Q1: 1.125, Median: 5.5, Q3: 8.375, N: 5}},
		{[]float64{7}, Summary{Q1: 7, Median: 7, Q3: 7, N: 1}},
	}
	for _, c := range cases {
		if got := Summarize(c.xs); got != c.want {
			t.Errorf("Summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 5, 5},
		{75, 8, 2},
		{90, 9, 1},
		{100, 10, 0},
		{1, 1, 9},
	}
	for _, c := range cases {
		if v, beyond := NearestRank(xs, c.p); v != c.v || beyond != c.beyond {
			t.Errorf("NearestRank(p%g) = %g with %d beyond, want %g with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
}

// A tail percentile is reported only with ten samples beyond it: forty
// resubmissions support p75 and no higher of the usual percentiles.
func TestNearestRankBeyondForTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	cases := []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 20, 20},
		{75, 30, 10},
		{90, 36, 4},
	}
	for _, c := range cases {
		if v, beyond := NearestRank(xs, c.p); v != c.v || beyond != c.beyond {
			t.Errorf("NearestRank(40 samples, p%g) = %g with %d beyond, want %g with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if _, beyond := NearestRank(xs[:39], 75); beyond >= 10 {
		t.Errorf("39 samples leave %d beyond p75, want fewer than ten", beyond)
	}
}

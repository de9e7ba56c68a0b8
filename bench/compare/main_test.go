package main

import (
	"strings"
	"testing"
)

func runs(vs ...float64) []runValue {
	out := make([]runValue, len(vs))
	for i, v := range vs {
		out[i] = runValue{seed: int64(i + 1), value: v}
	}
	return out
}

func TestVerdict(t *testing.T) {
	parent := runs(10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10)
	lower := rule{Better: "lower", Bound: 0.1}
	setup := rule{Better: "lower", Bound: 0.25, Floor: 0.010}
	failed := rule{Better: "lower"}
	cases := []struct {
		name string
		p, c []runValue
		r    rule
		want string
	}{
		{"same", parent, runs(10, 10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9), lower, "unchanged"},
		{"slower beyond the bound", parent, runs(11.5, 11.6, 11.4, 11.5, 11.7, 11.3, 11.5, 11.6, 11.4, 11.5), lower, "worse"},
		{"faster in every pair", parent, runs(9, 9.1, 8.9, 9.2, 8.8, 9, 9.1, 8.9, 9, 9), lower, "improved"},
		{"higher is better", parent, runs(9, 9.1, 8.9, 9.2, 8.8, 9, 9.1, 8.9, 9, 9), rule{Better: "higher", Bound: 0.05}, "worse"},
		{"parent too noisy", runs(8, 12, 9, 11, 10, 7, 13, 10, 9, 11), runs(10, 10, 10, 10, 10, 10, 10, 10, 10, 10), lower, "unresolved"},
		{"noisy but every run better", runs(8, 12, 9, 11, 10, 7, 13, 10, 9, 11), runs(5, 5, 5, 5, 5, 5, 5, 5, 5, 5), lower, "improved"},
		// A 3 ms set-up may grow by the 10 ms floor, more than its 25%.
		{"set-up within the floor", runs(0.003, 0.0031, 0.0029, 0.003), runs(0.012, 0.0121, 0.0119, 0.012), setup, "unchanged"},
		{"set-up beyond the floor", runs(0.003, 0.0031, 0.0029, 0.003), runs(0.014, 0.0141, 0.0139, 0.014), setup, "worse"},
		{"set-up beyond the bound", runs(0.1, 0.101, 0.099, 0.1), runs(0.13, 0.131, 0.129, 0.13), setup, "worse"},
		// Any increase in the failed share is worse.
		{"no failures", runs(0, 0, 0), runs(0, 0, 0), failed, "unchanged"},
		{"a failure in one run", runs(0, 0, 0), runs(0, 0.01, 0), failed, "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.p, c.c, c.r); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSameOutputsRefusesDifferentDigests(t *testing.T) {
	parent := &side{digests: map[string]map[int64]string{"city": {1: "a", 2: "b"}}}
	change := &side{digests: map[string]map[int64]string{"city": {1: "a", 2: "c"}}}
	err := sameOutputs(parent, change)
	if err == nil || !strings.Contains(err.Error(), "city seed 2") {
		t.Fatalf("differing digests: %v", err)
	}
	change.digests["city"][2] = "b"
	if err := sameOutputs(parent, change); err != nil {
		t.Fatalf("identical digests refused: %v", err)
	}
}

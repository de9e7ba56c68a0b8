package main

import (
	"math"
	"strings"
	"testing"
)

// TestRandomSpecRefusesBadFlags pins the -rand flag values macawtopo exits
// 2 on rather than hanging, panicking or printing a degenerate layout.
func TestRandomSpecRefusesBadFlags(t *testing.T) {
	cases := []struct {
		mode       string
		area, rate float64
		want       string
	}{
		{"cluster", math.NaN(), 0, "AreaFt, got NaN"},
		{"cluster", math.Inf(1), 0, "AreaFt, got +Inf"},
		{"cluster", -10, 0, "AreaFt, got -10"},
		{"cluster", 1e300, 0, "1-ft cubes quantize exactly"},
		{"uniform", 0, math.NaN(), "Rate, got NaN"},
		{"uniform", 0, math.Inf(1), "Rate, got +Inf"},
		{"uniform", 0, 1e12, "zero gap between packets"},
		{"grid", 0, 0, "unknown -mode"},
	}
	for _, c := range cases {
		_, err := randomSpec(50, 1, c.mode, c.area, c.rate)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("randomSpec(mode %s, area %g, rate %g) = %v, want an error containing %q",
				c.mode, c.area, c.rate, err, c.want)
		}
	}
	spec, err := randomSpec(50, 1, "cluster", 0, 0)
	if err != nil || !spec.Clustered || spec.N != 50 {
		t.Fatalf("defaults: spec %+v, err %v", spec, err)
	}
}

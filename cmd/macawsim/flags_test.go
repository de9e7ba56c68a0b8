package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"macaw/internal/core"
)

// TestFlagConflictsFailClosed pins the flag combinations where one flag
// would otherwise be silently ignored. Each must produce a
// FlagConflictError naming both flags.
func TestFlagConflictsFailClosed(t *testing.T) {
	cases := []struct {
		name       string
		fs         flagSet
		flag, with string
	}{
		{"chaos+sweep", flagSet{sweep: "mild.dec=2", chaos: true}, "-chaos", "-sweep"},
		{"tracefrom without tracejson", flagSet{traceFrom: 5}, "-tracefrom", "-tracejson"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.fs)
			if err == nil {
				t.Fatalf("validateFlags(%+v) = nil, want FlagConflictError", tc.fs)
			}
			var fc *FlagConflictError
			if !errors.As(err, &fc) {
				t.Fatalf("validateFlags(%+v) = %T %v, want *FlagConflictError", tc.fs, err, err)
			}
			if fc.Flag != tc.flag || fc.Other != tc.with {
				t.Fatalf("conflict = (%s, %s), want (%s, %s)", fc.Flag, fc.Other, tc.flag, tc.with)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.flag) || !strings.Contains(msg, tc.with) {
				t.Fatalf("error %q does not name both %s and %s", msg, tc.flag, tc.with)
			}
		})
	}
}

// TestFlagCombinationsAllowed pins the combinations that must keep working:
// the validator only rejects contradictions, never plain usage.
func TestFlagCombinationsAllowed(t *testing.T) {
	cases := []struct {
		name string
		fs   flagSet
	}{
		{"defaults", flagSet{format: "text"}},
		{"sweep alone", flagSet{sweep: "mild.dec=2", format: "text"}},
		{"chaos alone", flagSet{chaos: true, format: "text"}},
		{"tracefrom with tracejson", flagSet{traceJSON: "t.jsonl", traceFrom: 5, format: "text"}},
		{"csv", flagSet{format: "csv"}},
		{"sweep as csv", flagSet{sweep: "mild.dec=2", format: "csv"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := validateFlags(tc.fs); err != nil {
				t.Fatalf("validateFlags(%+v) = %v, want nil", tc.fs, err)
			}
		})
	}
}

// TestUnknownFormatFailsClosed: -format accepts exactly text and csv. Any
// other value is an error naming the flag and the value, not a silent
// fallback to text.
func TestUnknownFormatFailsClosed(t *testing.T) {
	for _, format := range []string{"xml", "", "CSV", "json"} {
		err := validateFlags(flagSet{format: format})
		if err == nil {
			t.Fatalf("validateFlags(-format %q) = nil, want an error", format)
		}
		if msg := err.Error(); !strings.Contains(msg, "-format") || !strings.Contains(msg, fmt.Sprintf("%q", format)) {
			t.Fatalf("error %q does not name -format and %q", msg, format)
		}
	}
}

// TestSweepUsageListsEveryDeltaKind: the -sweep help names every kind the
// sweep accepts, not a hand-kept subset.
func TestSweepUsageListsEveryDeltaKind(t *testing.T) {
	usage := sweepUsage()
	for _, k := range core.DeltaKinds() {
		if !strings.Contains(usage, k) {
			t.Errorf("-sweep help omits delta kind %q: %s", k, usage)
		}
	}
}

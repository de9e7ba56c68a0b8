package main

import (
	"fmt"
	"strings"

	"macaw/internal/core"
)

// This file validates flag combinations immediately after flag.Parse, before
// any work (or file creation) happens. A flag that another flag would
// silently ignore — -chaos under -sweep (the sweep branch runs first),
// -tracefrom with no trace to trim — fails closed
// with a FlagConflictError naming both flags, so the caller learns which
// half of the contradiction to drop. An unknown -format value fails closed
// too, rather than falling back to text.

// FlagConflictError reports two flags that cannot be combined (or a flag
// whose prerequisite flag is missing). Flag is the flag being rejected;
// Other is the flag it conflicts with or requires.
type FlagConflictError struct {
	Flag   string // the rejected flag, e.g. "-chaos"
	Other  string // the flag it conflicts with or requires, e.g. "-sweep"
	Reason string // one clause explaining the contradiction
}

func (e *FlagConflictError) Error() string {
	return fmt.Sprintf("flag %s conflicts with %s: %s", e.Flag, e.Other, e.Reason)
}

// flagSet is the subset of parsed flag state the validator inspects.
type flagSet struct {
	sweep     string
	chaos     bool
	traceJSON string
	traceFrom float64
	format    string
}

// validateFlags rejects contradictory flag combinations with a typed error
// naming both flags, and a -format other than text or csv. It runs before
// any flag takes effect, so a rejected invocation leaves no partial output
// behind.
func validateFlags(f flagSet) error {
	if f.chaos && f.sweep != "" {
		return &FlagConflictError{Flag: "-chaos", Other: "-sweep",
			Reason: "a sweep builds its own grid; the robustness table is a separate run"}
	}
	if f.traceFrom != 0 && f.traceJSON == "" {
		return &FlagConflictError{Flag: "-tracefrom", Other: "-tracejson",
			Reason: "-tracefrom only trims what -tracejson records"}
	}
	if f.format != "text" && f.format != "csv" {
		return fmt.Errorf("-format %q: want text or csv", f.format)
	}
	return nil
}

// sweepUsage is the -sweep help text. It lists the delta kinds from
// core.DeltaKinds, so the help cannot fall behind the taxonomy.
func sweepUsage() string {
	return fmt.Sprintf("run a warm-started parameter sweep instead of the tables: \"kind=v1,v2[;kind2=v3,…]\" over typed deltas (%s); each variant's delta applies at the warmup barrier of a network warmed up under the base configuration (ignores -table)",
		strings.Join(core.DeltaKinds(), ", "))
}

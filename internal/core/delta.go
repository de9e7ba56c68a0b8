package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"macaw/internal/backoff"
)

// This file applies typed parameter deltas at a run barrier (DESIGN.md §15).
// A delta is the thing a warm-started sweep varies: every variant warms its
// network up under the base configuration, then applies its delta at the
// same virtual time, so the continuation is a pure function of (state at
// barrier, delta).
//
// Delta kinds:
//
//	backoff.min        BOmin for every station's strategy (BEB and MILD)
//	backoff.max        BOmax for every station's strategy (BEB and MILD)
//	mild.inc           MILD increase factor Finc(x) = ceil(x·v) (no-op on BEB)
//	mild.dec           MILD decrease step Fdec(x) = max(x-v, BOmin) (no-op on BEB)
//	load.rate          CBR offered load, packets/second, every stream
//	retry.limit        per-packet retry limit at every station
//	cw.min             DCF CWmin at every DCF station
//	cw.max             DCF CWmax at every DCF station
//	retry.short        DCF dot11ShortRetryLimit (RTS attempts)
//	retry.long         DCF dot11LongRetryLimit (data attempts)
//	tournament.window  tournament constant window W
//
// Kinds inapplicable to a protocol (mild.* over BEB, any backoff kind over
// the token scheme, cw.* at a non-DCF station, retry.limit at a station
// with no retry counter) are deterministic no-ops — deterministically
// nothing at every station — never silent partial applications. Unknown kinds
// and kinds that would invalidate warmed state (fault.*) fail closed with
// typed errors. Values that would silently clamp — a mild.dec step wider
// than the backoff window span, a cw.min above a station's live cw.max —
// fail at validation time, before any station is touched (the cw.* kinds
// pre-validate against every station's live bounds explicitly).

// Typed delta-application failures.
var (
	// ErrDeltaUnknown means the delta kind is not in the taxonomy.
	ErrDeltaUnknown = errors.New("core: unknown delta kind")
	// ErrDeltaInvalid means the delta value is out of the kind's domain.
	ErrDeltaInvalid = errors.New("core: invalid delta value")
	// ErrDeltaInvalidates means the delta kind would rewrite state fixed at
	// build time (fault trajectories), so it cannot take effect at a barrier.
	ErrDeltaInvalidates = errors.New("core: delta invalidates warm state")
)

// DeltaKinds lists the supported delta kinds.
func DeltaKinds() []string {
	return []string{"backoff.min", "backoff.max", "mild.inc", "mild.dec", "load.rate", "retry.limit",
		"cw.min", "cw.max", "retry.short", "retry.long", "tournament.window"}
}

// backoffRetuner is the engine hook for strategy retuning; the token scheme
// does not implement it (it has no backoff), which is a deterministic no-op.
type backoffRetuner interface{ BackoffPolicy() backoff.Policy }

// retryRetuner is the engine hook for the retry limit.
type retryRetuner interface{ SetMaxRetries(n int) }

// cwRetuner is the DCF hook for the contention-window bounds. CWBounds lets
// the delta layer validate a new bound against every station's live pair
// before mutating any of them.
type cwRetuner interface {
	CWBounds() (min, max int)
	SetCWMin(v int) error
	SetCWMax(v int) error
}

// dcfRetryRetuner is the DCF hook for the split 802.11 retry limits.
type dcfRetryRetuner interface {
	SetShortRetry(n int) error
	SetLongRetry(n int) error
}

// windowRetuner is the tournament hook for the constant window.
type windowRetuner interface{ SetWindow(v int) error }

// ApplyDelta applies one typed parameter delta to the running network. It
// must be invoked with the network parked at a barrier. Every error is typed
// and fails the whole application before any station was touched.
func (n *Network) ApplyDelta(kind string, value float64) error {
	switch kind {
	case "backoff.min", "backoff.max":
		v := int(value)
		if float64(v) != value || v < 1 {
			return fmt.Errorf("%w: %s=%g", ErrDeltaInvalid, kind, value)
		}
		set := backoff.SetBOMin
		if kind == "backoff.max" {
			set = backoff.SetBOMax
		}
		return n.retunePolicies(func(p backoff.Policy) error { return set(p, v) })
	case "mild.inc":
		num := int(math.Round(value * 1000))
		if num < 1000 {
			return fmt.Errorf("%w: %s=%g below 1", ErrDeltaInvalid, kind, value)
		}
		return n.retunePolicies(func(p backoff.Policy) error { return backoff.SetMILDInc(p, num, 1000) })
	case "mild.dec":
		step := int(value)
		if float64(step) != value || step < 1 {
			return fmt.Errorf("%w: %s=%g", ErrDeltaInvalid, kind, value)
		}
		return n.retunePolicies(func(p backoff.Policy) error { return backoff.SetMILDDec(p, step) })
	case "load.rate":
		if value <= 0 {
			return fmt.Errorf("%w: %s=%g", ErrDeltaInvalid, kind, value)
		}
		for _, s := range n.streams {
			if err := s.gen.SetRate(value); err != nil {
				return fmt.Errorf("%w: %v", ErrDeltaInvalid, err)
			}
			s.Rate = value
		}
		return nil
	case "retry.limit":
		limit := int(value)
		if float64(limit) != value || limit < 0 {
			return fmt.Errorf("%w: %s=%g", ErrDeltaInvalid, kind, value)
		}
		for _, st := range n.stations {
			if r, ok := st.mac.(retryRetuner); ok {
				r.SetMaxRetries(limit)
			}
		}
		return nil
	case "cw.min", "cw.max":
		v := int(value)
		if float64(v) != value || v < 1 {
			return fmt.Errorf("%w: %s=%g", ErrDeltaInvalid, kind, value)
		}
		// Validate against every DCF station's live bounds first: a value
		// that would invert a window fails closed with no station touched —
		// never a silent clamp, never a partial application.
		for _, st := range n.stations {
			cw, ok := st.mac.(cwRetuner)
			if !ok {
				continue
			}
			lo, hi := cw.CWBounds()
			if kind == "cw.min" && v > hi {
				return fmt.Errorf("%w: cw.min=%d above live cw.max %d at station %s", ErrDeltaInvalid, v, hi, st.name)
			}
			if kind == "cw.max" && v < lo {
				return fmt.Errorf("%w: cw.max=%d below live cw.min %d at station %s", ErrDeltaInvalid, v, lo, st.name)
			}
		}
		for _, st := range n.stations {
			cw, ok := st.mac.(cwRetuner)
			if !ok {
				continue
			}
			var err error
			if kind == "cw.min" {
				err = cw.SetCWMin(v)
			} else {
				err = cw.SetCWMax(v)
			}
			if err != nil {
				return fmt.Errorf("%w: station %s: %v", ErrDeltaInvalid, st.name, err)
			}
		}
		return nil
	case "retry.short", "retry.long":
		v := int(value)
		if float64(v) != value || v < 1 {
			return fmt.Errorf("%w: %s=%g", ErrDeltaInvalid, kind, value)
		}
		for _, st := range n.stations {
			r, ok := st.mac.(dcfRetryRetuner)
			if !ok {
				continue
			}
			var err error
			if kind == "retry.short" {
				err = r.SetShortRetry(v)
			} else {
				err = r.SetLongRetry(v)
			}
			if err != nil {
				return fmt.Errorf("%w: station %s: %v", ErrDeltaInvalid, st.name, err)
			}
		}
		return nil
	case "tournament.window":
		v := int(value)
		if float64(v) != value || v < 2 {
			return fmt.Errorf("%w: %s=%g (window floor is 2)", ErrDeltaInvalid, kind, value)
		}
		for _, st := range n.stations {
			if w, ok := st.mac.(windowRetuner); ok {
				if err := w.SetWindow(v); err != nil {
					return fmt.Errorf("%w: station %s: %v", ErrDeltaInvalid, st.name, err)
				}
			}
		}
		return nil
	default:
		if strings.HasPrefix(kind, "fault.") {
			// Fault knobs shape the injector's trajectory from time zero;
			// a warmed network has already committed to one, so no delta
			// can rewrite it at a barrier.
			return fmt.Errorf("%w: %s (fault trajectories are fixed at build)", ErrDeltaInvalidates, kind)
		}
		return fmt.Errorf("%w: %q", ErrDeltaUnknown, kind)
	}
}

// retunePolicies applies fn to every station's backoff policy; stations whose
// engine has none are skipped deterministically.
func (n *Network) retunePolicies(fn func(backoff.Policy) error) error {
	for _, st := range n.stations {
		if br, ok := st.mac.(backoffRetuner); ok {
			if err := fn(br.BackoffPolicy()); err != nil {
				return fmt.Errorf("%w: station %s: %v", ErrDeltaInvalid, st.name, err)
			}
		}
	}
	return nil
}

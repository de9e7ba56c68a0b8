package backoff

import (
	"fmt"
	"math"
)

// This file provides the live retuning hooks behind warm-started parameter
// sweeps (DESIGN.md §15): a delta applied at a barrier rewrites strategy
// constants — bounds, the MILD increase factor and decrease step — inside
// the policies of a running network. Counters are left untouched; the new
// constants take effect from the next adjustment.

// retuneStrategy rewrites p's strategy in place via fn.
func retuneStrategy(p Policy, fn func(Strategy) (Strategy, error)) error {
	switch pp := p.(type) {
	case *Single:
		st, err := fn(pp.strat)
		if err != nil {
			return err
		}
		pp.strat = st
		return nil
	case *PerDest:
		st, err := fn(pp.strat)
		if err != nil {
			return err
		}
		pp.strat = st
		return nil
	default:
		return fmt.Errorf("backoff: retune: policy %T has no strategy hook", p)
	}
}

// SetBOMin rewrites the strategy's BOmin, keeping its BOmax.
func SetBOMin(p Policy, bomin int) error { return setBounds(p, bomin, 0) }

// SetBOMax rewrites the strategy's BOmax, keeping its BOmin.
func SetBOMax(p Policy, bomax int) error { return setBounds(p, 0, bomax) }

// setBounds rewrites whichever bound is non-zero, validating the pair.
func setBounds(p Policy, bomin, bomax int) error {
	pick := func(curMin, curMax int) (int, int, error) {
		if bomin != 0 {
			curMin = bomin
		}
		if bomax != 0 {
			curMax = bomax
		}
		// A packet header carries backoff values as int16, and the
		// per-destination Peer records hold them in 32 bits.
		if curMin < 1 || curMax < curMin || curMax > math.MaxInt16 {
			return 0, 0, fmt.Errorf("backoff: retune: invalid bounds [%d, %d]", curMin, curMax)
		}
		return curMin, curMax, nil
	}
	return retuneStrategy(p, func(s Strategy) (Strategy, error) {
		switch st := s.(type) {
		case BEB:
			lo, hi, err := pick(st.BOMin, st.BOMax)
			if err != nil {
				return nil, err
			}
			st.BOMin, st.BOMax = lo, hi
			return st, nil
		case MILD:
			lo, hi, err := pick(st.BOMin, st.BOMax)
			if err != nil {
				return nil, err
			}
			st.BOMin, st.BOMax = lo, hi
			return st, nil
		default:
			return nil, fmt.Errorf("backoff: retune: strategy %T has no bounds", s)
		}
	})
}

// SetMILDInc rewrites the MILD increase factor to num/den. Policies using a
// non-MILD strategy are left untouched (a deterministic no-op), so one sweep
// delta can cover a mixed-protocol table.
func SetMILDInc(p Policy, num, den int) error {
	if num < den || den < 1 {
		return fmt.Errorf("backoff: retune: increase factor %d/%d below 1", num, den)
	}
	return retuneStrategy(p, func(s Strategy) (Strategy, error) {
		if st, ok := s.(MILD); ok {
			st.IncNum, st.IncDen = num, den
			return st, nil
		}
		return s, nil
	})
}

// SetMILDDec rewrites the MILD decrease step; non-MILD strategies are a
// deterministic no-op. A step wider than the strategy's window span
// (BOmax - BOmin) is rejected: every decrease would clamp straight to the
// floor, so the configured value would silently not be the effective one —
// the sweep layer requires that to fail at validation time instead.
func SetMILDDec(p Policy, step int) error {
	if step < 1 {
		return fmt.Errorf("backoff: retune: non-positive decrease step %d", step)
	}
	return retuneStrategy(p, func(s Strategy) (Strategy, error) {
		if st, ok := s.(MILD); ok {
			if span := st.BOMax - st.BOMin; step > span {
				return nil, fmt.Errorf("backoff: retune: decrease step %d exceeds window span %d (BOmax %d - BOmin %d): every decrease would clamp to the floor",
					step, span, st.BOMax, st.BOMin)
			}
			st.DecStep = step
			return st, nil
		}
		return s, nil
	})
}

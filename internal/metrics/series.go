package metrics

import "macaw/internal/sim"

// seriesCap is the default bound on retained points per series.
const seriesCap = 2048

// Point is one retained time-series sample.
type Point struct {
	T sim.Time
	V float64
}

// Series is a bounded time-series with deterministic decimation: it keeps
// every stride-th sample, and when the retained points would exceed the cap
// it halves them (keeping every second point) and doubles the stride. The
// retained set is a pure function of the observed sequence — no randomness,
// no wall clock — so parallel runs stay byte-identical. The shape survives
// decimation: samples stay evenly spaced in sample count, which is what a
// Fig. 2-style backoff-evolution plot needs.
type Series struct {
	// MaxPoints bounds the retained points (default seriesCap when 0).
	MaxPoints int

	stride int64
	seen   int64
	pts    []Point
}

func (s *Series) cap() int {
	if s.MaxPoints > 0 {
		return s.MaxPoints
	}
	return seriesCap
}

// Observe records the sample (t, v).
func (s *Series) Observe(t sim.Time, v float64) {
	if s.stride == 0 {
		s.stride = 1
	}
	if s.seen%s.stride == 0 {
		if len(s.pts) >= s.cap() {
			kept := s.pts[:0]
			for i := 0; i < len(s.pts); i += 2 {
				kept = append(kept, s.pts[i])
			}
			s.pts = kept
			s.stride *= 2
		}
		if s.seen%s.stride == 0 {
			s.pts = append(s.pts, Point{T: t, V: v})
		}
	}
	s.seen++
}

// Len reports the number of retained points.
func (s *Series) Len() int { return len(s.pts) }

// Seen reports the total number of observed samples.
func (s *Series) Seen() int64 { return s.seen }

// Points returns the retained points in time order.
func (s *Series) Points() []Point { return s.pts }

// MarshalJSON renders the series as {"stride", "seen", "points"} with each
// point a [seconds, value] pair, the bytes encoding/json would write for
// the same fields.
func (s *Series) MarshalJSON() ([]byte, error) {
	w := docWriter{b: make([]byte, 0, 48+len(s.pts)*24)}
	w.series(s)
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

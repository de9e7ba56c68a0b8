// Package backoff implements the backoff machinery of the paper: the BEB
// and MILD adjustment functions (§3.1), the backoff-copying scheme in which
// stations adopt the counter carried in overheard packet headers (§3.1), and
// the per-destination backoff tables of §3.4 with the local/remote/ESN/retry
// bookkeeping from Appendix B.
package backoff

import "macaw/internal/frame"

// Paper constants: "we have chosen BOmin = 2 and BOmax = 64".
const (
	DefaultMin = 2
	DefaultMax = 64
	// DefaultAlpha is the additive retry penalty ALPHA from Appendix B.
	DefaultAlpha = 1
)

// IDontKnow marks an unknown remote backoff estimate: frame.IDontKnow,
// untyped so that it compares with the int policy values and the int32
// Peer fields alike.
const IDontKnow = -1

// Strategy is a backoff adjustment algorithm: Inc is applied after a failed
// RTS (Finc), Dec after a successful exchange (Fdec).
type Strategy interface {
	Inc(x int) int
	Dec(x int) int
	Min() int
	Max() int
	Name() string
}

// BEB is binary exponential backoff: Finc(x) = min(2x, BOmax),
// Fdec(x) = BOmin.
type BEB struct {
	BOMin, BOMax int
}

// NewBEB returns BEB with the paper's bounds.
func NewBEB() BEB { return BEB{DefaultMin, DefaultMax} }

// Inc implements Strategy.
func (b BEB) Inc(x int) int { return min(2*x, b.BOMax) }

// Dec implements Strategy.
func (b BEB) Dec(int) int { return b.BOMin }

// Min implements Strategy.
func (b BEB) Min() int { return b.BOMin }

// Max implements Strategy.
func (b BEB) Max() int { return b.BOMax }

// Name implements Strategy.
func (BEB) Name() string { return "BEB" }

// MILD is multiplicative increase, linear decrease: Finc(x) =
// min(1.5x, BOmax), Fdec(x) = max(x-1, BOmin) (§3.1). The increase factor
// and decrease step are parameterized for sweep experiments; the zero values
// select the paper's 1.5 and 1 exactly.
type MILD struct {
	BOMin, BOMax int
	// IncNum/IncDen override the multiplicative increase factor:
	// Finc(x) = min(ceil(x·IncNum/IncDen), BOmax). Both zero selects the
	// paper's 3/2.
	IncNum, IncDen int
	// DecStep overrides the linear decrease step: Fdec(x) =
	// max(x-DecStep, BOmin). Zero selects the paper's 1.
	DecStep int
}

// NewMILD returns MILD with the paper's bounds.
func NewMILD() MILD { return MILD{BOMin: DefaultMin, BOMax: DefaultMax} }

// Inc implements Strategy.
func (m MILD) Inc(x int) int {
	num, den := m.IncNum, m.IncDen
	if num == 0 || den == 0 {
		num, den = 3, 2
	}
	return min((x*num+den-1)/den, m.BOMax) // ceil(x·num/den)
}

// Dec implements Strategy.
func (m MILD) Dec(x int) int {
	step := m.DecStep
	if step == 0 {
		step = 1
	}
	return max(x-step, m.BOMin)
}

// Min implements Strategy.
func (m MILD) Min() int { return m.BOMin }

// Max implements Strategy.
func (m MILD) Max() int { return m.BOMax }

// Name implements Strategy.
func (MILD) Name() string { return "MILD" }

// Policy is the interface the MAC layer programs against. A policy answers
// the contention window to use toward a destination and digests the backoff
// information carried by sent, received and overheard frames.
type Policy interface {
	// Backoff returns the current contention window, in slots, for
	// transmissions to dst.
	Backoff(dst frame.NodeID) int
	// StartExchange notes that a brand-new data packet exchange with dst
	// is beginning (advances the ESN in per-destination mode).
	StartExchange(dst frame.NodeID)
	// StampSend fills the frame's LocalBackoff, RemoteBackoff and ESN
	// header fields prior to transmission.
	StampSend(f *frame.Frame)
	// OnOverhear digests a frame addressed to somebody else. Appendix B:
	// RTS packets are ignored "because they may not carry the correct
	// backoff values".
	OnOverhear(f *frame.Frame)
	// OnReceive digests a frame addressed to this station.
	OnReceive(f *frame.Frame)
	// OnSuccess records a completed exchange with dst (Fdec).
	OnSuccess(dst frame.NodeID)
	// OnFailure records a failed RTS toward dst (Finc).
	OnFailure(dst frame.NodeID)
	// OnGiveUp records that the retry limit toward dst was exhausted and
	// the packet dropped.
	OnGiveUp(dst frame.NodeID)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

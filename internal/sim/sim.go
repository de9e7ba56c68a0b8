// Package sim provides the discrete-event simulation engine underlying the
// MACAW reproduction.
//
// The engine is deliberately minimal and deterministic: time is an integer
// number of nanoseconds, events fire in (time, insertion) order, and all
// randomness flows through seeded generators obtained from the Simulator so
// that a run is a pure function of its configuration and seed.
//
// Scheduled callbacks are held in a slab of pooled records under a heap of
// pointer-free entries (queue.go): a fired or discarded record goes onto a
// per-simulator free list and is reused by the next At/After call, so
// steady-state simulation does not allocate per event. The Event values
// handed to callers are seq-validated handles that keep behaving exactly
// like a reference to their original event (When, Cancel, Cancelled) even
// after the underlying record has been recycled. The free list is
// per-simulator rather than a sync.Pool: a Simulator is single-threaded by
// contract, and keeping reuse local preserves determinism and avoids
// cross-run contention when many simulators run in parallel. A finished
// simulator's storage moves only by an explicit Recycle.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Time is a simulation timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a span of simulation time in nanoseconds. It is kept distinct
// from time.Duration to make it impossible to accidentally mix wall-clock
// durations into the simulation.
type Duration = Time

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromSeconds converts floating-point seconds to a simulation Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Simulator owns the event queue and the simulation clock.
type Simulator struct {
	now        Time
	queue      []entry  // binary min-heap of pending events, cancelled included
	slab       []record // event records; heap entries index into it
	free       []int32  // slab indices of recycled records
	seq        uint64
	seed       int64
	streams    int64
	rng        *rand.Rand
	stopped    bool
	ncancelled int               // cancelled events still sitting in the queue
	nfired     uint64            // events fired by Step over the simulator's lifetime
	maxQueue   int               // high-water mark of the event queue length
	sources    []*countingSource // every RNG source handed out, in creation order
	spares     []*Source         // unused generators taken over by Recycle
	recycled   bool              // Recycle handed this simulator's storage on
}

// New returns a Simulator whose randomness derives from seed.
func New(seed int64) *Simulator {
	s := &Simulator{seed: seed}
	s.rng = rand.New(s.newSource(seed))
	return s
}

// Now reports the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Seed reports the seed the simulator was created with.
func (s *Simulator) Seed() int64 { return s.seed }

// Rand returns the simulator's primary random number generator. Callers that
// need isolated, reproducible streams should prefer NewRand.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// NewRand returns a fresh generator whose seed is derived deterministically
// from the simulator seed and the number of streams created so far. Giving
// each station its own stream keeps per-station behaviour stable when
// unrelated parts of the configuration change. The stream is seeded lazily,
// on its first draw, into a generator recycled from a finished simulator
// when s has one (Recycle); neither changes the values it deals.
func (s *Simulator) NewRand() *rand.Rand {
	s.streams++
	// SplitMix-style scramble so consecutive stream indices land far apart.
	z := uint64(s.seed) + uint64(s.streams)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(s.newSource(int64(z)))
}

// SetNextStream positions the stream counter so the next NewRand call
// produces stream number k (1-based; a fresh simulator's first NewRand is
// stream 1). Shard runners use it to rebuild a subset of a larger
// simulation with the exact generators the monolithic run would have handed
// out: a component's stations draw the same streams they would draw in the
// full building, so their random choices — and therefore their entire event
// histories — are bit-identical. k must be at least 1.
func (s *Simulator) SetNextStream(k int64) {
	if k < 1 {
		panic("sim: stream numbers start at 1")
	}
	s.streams = k - 1
}

// At schedules fn to run at time t with default (zero) priority.
// Scheduling in the past panics: such an event would silently corrupt
// causality. So does scheduling on a simulator whose storage Recycle has
// handed on.
func (s *Simulator) At(t Time, fn func()) Event {
	return s.AtPriority(t, 0, fn)
}

// AtPriority schedules fn to run at time t. Events at the same instant fire
// in ascending priority order (FIFO within a priority class). Physical-layer
// completions use negative priorities so that a station's same-instant
// protocol timers always observe frames that finished "now" — exactly the
// ordering a real receiver sees, where decoding completes before any local
// decision taken at the same moment. prio must fit in an int16: the queue
// packs it into one word with the event's sequence number.
func (s *Simulator) AtPriority(t Time, prio int, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.AtPriorityCall(t, prio, callFunc, fn, nil)
}

// callFunc is the AtPriorityCall trampoline for a plain func(). A func value
// is pointer-shaped, so boxing it into the event record does not allocate.
func callFunc(a, _ any) { a.(func())() }

// AtPriorityCall schedules fn(a, b) at time t with the given priority — the
// allocation-free twin of AtPriority. The function value and its arguments
// are stored in the pooled event record instead of a heap-allocated closure,
// so hot paths that schedule millions of callbacks (the phy layer's
// completions and delivery notifications) do not allocate per event. fn
// should be a package-level function or another long-lived value; a and b
// carry whatever it needs (either may be nil).
func (s *Simulator) AtPriorityCall(t Time, prio int, fn func(a, b any), a, b any) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	i, x := s.push(t, prio)
	x.fn, x.a, x.b = fn, a, b
	return Event{s: s, seq: s.seq, when: t, e: i}
}

// Call is the AtPriorityCall trampoline for methods: a is the receiver and b
// a method expression of type func(T), such as (*MACAW).onCTSTimeout. A
// method expression is a static function value and a pointer receiver is
// pointer-shaped, so boxing either into the event record does not allocate —
//
//	s.AtPriorityCall(t, 0, sim.Call[*MACAW], m, (*MACAW).onCTSTimeout)
//
// arms a protocol timer without the closure that At(t, m.onCTSTimeout)
// allocates for its method value. At priority 0 it consumes the same seq as
// At, so the firing order is identical.
func Call[T any](a, b any) { b.(func(T))(a.(T)) }

// After schedules fn to run d nanoseconds from now.
func (s *Simulator) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Stop makes the current Run call return after the in-flight event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Pending reports the number of events still queued (including cancelled
// events that have not yet been discarded).
func (s *Simulator) Pending() int { return len(s.queue) }

// Fired reports how many events Step has executed since the simulator was
// created — the engine-level cost counter the metrics exporter snapshots.
func (s *Simulator) Fired() uint64 { return s.nfired }

// MaxQueued reports the event queue's high-water mark (including cancelled
// events awaiting purge).
func (s *Simulator) MaxQueued() int { return s.maxQueue }

// NextEventTime reports the firing time of the earliest live (uncancelled)
// pending event. ok is false when nothing is scheduled — the introspection a
// liveness watchdog needs to tell "quiet until t" from "wedged forever".
func (s *Simulator) NextEventTime() (t Time, ok bool) {
	s.purge()
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].when, true
}

// Step fires the single earliest pending event, skipping cancelled ones.
// It reports false when the queue is empty.
func (s *Simulator) Step() bool {
	s.purge()
	if len(s.queue) == 0 {
		return false
	}
	top := s.heapPop()
	s.now = top.when
	s.nfired++
	x := &s.slab[top.rec]
	fn, a, b := x.fn, x.a, x.b
	s.recycle(top.rec)
	fn(a, b)
	return true
}

// Run processes events in order until the queue is empty, the clock passes
// until, or Stop is called. Events scheduled exactly at until still fire.
// A run that Stop ends leaves the clock at the last fired event, so the
// events still pending before until fire on the next Run.
func (s *Simulator) Run(until Time) {
	s.stopped = false
	for !s.stopped {
		s.purge()
		if len(s.queue) == 0 {
			break
		}
		if s.queue[0].when > until {
			s.now = until
			return
		}
		s.Step()
	}
	if !s.stopped && s.now < until {
		s.now = until
	}
}

// RunAll processes events until the queue drains or Stop is called.
func (s *Simulator) RunAll() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunRealtime advances the simulation in lockstep with the wall clock:
// events fire when their simulated time arrives on the (scaled) real clock,
// and external work — e.g. frames arriving on a socket — is injected through
// inject and executed at the wall-mapped current time. scale stretches
// simulated time (scale 2 runs at half speed; protocols with sub-millisecond
// slots need scale >> 1 to survive OS timer jitter). RunRealtime returns
// when ctx is cancelled.
//
// The emulation layer (internal/netem) drives live protocol stacks with
// this; the discrete-event Run remains the tool for experiments.
func (s *Simulator) RunRealtime(ctx context.Context, scale float64, inject <-chan func()) {
	if scale <= 0 {
		scale = 1
	}
	start := time.Now()
	simStart := s.now
	wallFor := func(t Time) time.Time {
		return start.Add(time.Duration(float64(t-simStart) * scale))
	}
	simNow := func() Time {
		return simStart + Time(float64(time.Since(start))/scale)
	}
	for {
		var due <-chan time.Time
		var timer *time.Timer
		s.purge()
		if len(s.queue) > 0 {
			d := time.Until(wallFor(s.queue[0].when))
			if d <= 0 {
				s.Step()
				continue
			}
			timer = time.NewTimer(d)
			due = timer.C
		}
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return
		case fn, ok := <-inject:
			if timer != nil {
				timer.Stop()
			}
			if !ok {
				return
			}
			if t := simNow(); t > s.now {
				s.now = t
			}
			fn()
		case <-due:
			s.Step()
		}
	}
}

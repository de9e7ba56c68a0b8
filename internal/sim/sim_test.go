package sim

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"macaw/internal/statecheck"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %d, want %d", got, 1500*Millisecond)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
	if got := Time(1500 * Millisecond).String(); got != "1.500000s" {
		t.Fatalf("String() = %q", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, d := range []Duration{5 * Second, 1 * Second, 3 * Second, 2 * Second, 4 * Second} {
		d := d
		s.After(d, func() { fired = append(fired, s.Now()) })
	}
	s.RunAll()
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of order: %v", fired)
	}
}

func TestSameTimeEventsFireFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1*Second, func() { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New(1)
	fired := false
	e := s.After(1*Second, func() { fired = true })
	e.Cancel()
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelIsIdempotentAndNilSafe(t *testing.T) {
	s := New(1)
	e := s.After(1, func() {})
	e.Cancel()
	e.Cancel()
	var nilEvent *Event
	nilEvent.Cancel() // must not panic
	if nilEvent.Cancelled() {
		t.Fatal("nil event reports cancelled")
	}
	s.RunAll()
}

func TestRunStopsAtHorizon(t *testing.T) {
	s := New(1)
	var fired []Time
	s.After(1*Second, func() { fired = append(fired, s.Now()) })
	s.After(3*Second, func() { fired = append(fired, s.Now()) })
	s.Run(2 * Second)
	if len(fired) != 1 {
		t.Fatalf("fired %d events before horizon, want 1", len(fired))
	}
	if s.Now() != 2*Second {
		t.Fatalf("Now() = %v after Run(2s), want 2s", s.Now())
	}
	s.Run(4 * Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events total, want 2", len(fired))
	}
}

func TestRunFiresEventExactlyAtHorizon(t *testing.T) {
	s := New(1)
	fired := false
	s.At(2*Second, func() { fired = true })
	s.Run(2 * Second)
	if !fired {
		t.Fatal("event at the horizon did not fire")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.After(10*Millisecond, tick)
		}
	}
	s.After(10*Millisecond, tick)
	s.RunAll()
	if count != 100 {
		t.Fatalf("recursive scheduling ran %d ticks, want 100", count)
	}
	if s.Now() != 1*Second {
		t.Fatalf("Now() = %v, want 1s", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.After(1*Second, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(0, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil event function did not panic")
		}
	}()
	s.At(0, nil)
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(Duration(i)*Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.RunAll()
	if count != 3 {
		t.Fatalf("Stop fired %d events, want 3", count)
	}
	// Run may be resumed afterwards.
	s.RunAll()
	if count != 10 {
		t.Fatalf("resume fired %d events total, want 10", count)
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterministicRNGStreams(t *testing.T) {
	a := New(42)
	b := New(42)
	ra1, ra2 := a.NewRand(), a.NewRand()
	rb1, rb2 := b.NewRand(), b.NewRand()
	for i := 0; i < 100; i++ {
		if ra1.Int63() != rb1.Int63() || ra2.Int63() != rb2.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDistinctRNGStreamsDiffer(t *testing.T) {
	s := New(42)
	r1, r2 := s.NewRand(), s.NewRand()
	same := 0
	for i := 0; i < 100; i++ {
		if r1.Int63() == r2.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct streams collided %d/100 times", same)
	}
}

func TestSeedAccessor(t *testing.T) {
	if New(7).Seed() != 7 {
		t.Fatal("Seed() did not round-trip")
	}
}

// Property: for any batch of event delays, events fire in nondecreasing time
// order and the clock ends at the maximum delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		if len(delays) == 0 {
			return true
		}
		s := New(1)
		var fired []Time
		var max Time
		for _, d := range delays {
			dt := Time(d)
			if dt > max {
				max = dt
			}
			s.After(dt, func() { fired = append(fired, s.Now()) })
		}
		s.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the others fired.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint16, mask uint64) bool {
		s := New(1)
		fired := make(map[int]bool)
		events := make([]Event, len(delays))
		for i, d := range delays {
			i := i
			events[i] = s.After(Time(d), func() { fired[i] = true })
		}
		for i := range events {
			if mask&(1<<(uint(i)%64)) != 0 {
				events[i].Cancel()
			}
		}
		s.RunAll()
		for i := range events {
			want := mask&(1<<(uint(i)%64)) == 0
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.After(Time(i+1), func() {})
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", s.Pending())
	}
	s.RunAll()
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after RunAll, want 0", s.Pending())
	}
}

// BenchmarkScheduleAndRun schedules a batch of events at random delays and
// runs them all, on a shallow queue (1024 events) and a deep one (65536).
// A heap pays O(log n) per event, so the deep queue's per-event cost stays
// within a small factor of the shallow one's (1.1-2.6x on a 2-vCPU
// linux/amd64 host); the benchmark fails when it exceeds
// maxDeepOverShallow, which a linear or quadratic queue scan blows through
// by orders of magnitude. Both sides run in this process, so the ceiling
// does not depend on host speed.
func BenchmarkScheduleAndRun(b *testing.B) {
	const maxDeepOverShallow = 8
	perEvent := map[string]float64{}
	for _, q := range []struct {
		name  string
		depth int
	}{{"shallow", 1 << 10}, {"deep", 1 << 16}} {
		q := q
		b.Run(q.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			delays := make([]Duration, q.depth)
			for i := range delays {
				delays[i] = Duration(r.Int63n(int64(Second)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := New(1)
				for _, d := range delays {
					s.After(d, func() {})
				}
				s.RunAll()
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*q.depth)
			b.ReportMetric(ns, "ns/event")
			perEvent[q.name] = ns
		})
	}
	deep, okDeep := perEvent["deep"]
	shallow, okShallow := perEvent["shallow"]
	if !okDeep || !okShallow {
		return
	}
	b.Logf("deep/shallow per-event cost %.2fx (ceiling %dx)", deep/shallow, maxDeepOverShallow)
	if deep > maxDeepOverShallow*shallow {
		b.Fatalf("deep/shallow per-event cost %.2fx exceeds its %dx ceiling: queue cost grows faster than log n",
			deep/shallow, maxDeepOverShallow)
	}
}

func TestCancelledHeadDoesNotOvershootHorizon(t *testing.T) {
	// A cancelled event before the horizon must not let Run execute a
	// live event scheduled beyond the horizon.
	s := New(1)
	e := s.After(1*Second, func() {})
	fired := false
	s.After(5*Second, func() { fired = true })
	e.Cancel()
	s.Run(2 * Second)
	if fired {
		t.Fatal("Run overshot its horizon past a cancelled head event")
	}
	if s.Now() != 2*Second {
		t.Fatalf("Now() = %v, want 2s", s.Now())
	}
}

func TestEventRecordsAreRecycled(t *testing.T) {
	s := New(1)
	e := s.After(1, func() {})
	rec := e.e
	s.RunAll()
	e2 := s.After(1, func() {})
	if e2.e != rec {
		t.Fatal("fired event record was not reused by the next schedule")
	}
}

func TestStaleHandleSemantics(t *testing.T) {
	s := New(1)
	fired := false
	e := s.After(1*Second, func() { fired = true })
	s.RunAll()
	if !fired {
		t.Fatal("event did not fire")
	}
	// A handle to a fired event keeps answering like the original.
	if e.Cancelled() {
		t.Fatal("fired, uncancelled event reports cancelled")
	}
	if e.When() != 1*Second {
		t.Fatalf("When() = %v after firing, want 1s", e.When())
	}
	// The record is recycled by the next schedule; the stale handle must
	// neither observe nor disturb the new event.
	fired2 := false
	e2 := s.After(1*Second, func() { fired2 = true })
	if e2.e != e.e {
		t.Fatal("expected record reuse for this test to be meaningful")
	}
	e.Cancel()
	if !e.Cancelled() {
		t.Fatal("Cancel through a stale handle was not remembered by it")
	}
	if e2.Cancelled() {
		t.Fatal("stale Cancel leaked onto the recycled event")
	}
	s.RunAll()
	if !fired2 {
		t.Fatal("recycled event was suppressed by a stale handle")
	}
}

func TestZeroEventIsInert(t *testing.T) {
	var e Event
	if !e.IsZero() {
		t.Fatal("zero Event not IsZero")
	}
	e.Cancel() // must not panic
	if e.Cancelled() {
		t.Fatal("zero Event reports cancelled")
	}
	if e.When() != 0 {
		t.Fatal("zero Event has a When")
	}
}

func TestPurgeCompactsCancelledHeap(t *testing.T) {
	s := New(1)
	events := make([]Event, 200)
	for i := range events {
		events[i] = s.After(Time(i+1)*Millisecond, func() {})
	}
	// Cancel everything but every fourth event: cancelled events now far
	// outnumber live ones, so the next purge must compact the heap.
	for i := range events {
		if i%4 != 0 {
			events[i].Cancel()
		}
	}
	fired := 0
	s.At(500*Millisecond, func() { fired++ })
	s.Step() // purge runs first and compacts
	if p := s.Pending(); p > 60 {
		t.Fatalf("Pending() = %d after compaction, want ~50", p)
	}
	prev := Time(-1)
	for s.Step() {
		if s.Now() < prev {
			t.Fatal("compaction broke event ordering")
		}
		prev = s.Now()
	}
	if fired != 1 {
		t.Fatal("live event lost during compaction")
	}
}

func TestRunRealtimeFiresOnWallClock(t *testing.T) {
	s := New(1)
	var fired []Time
	s.After(10*Millisecond, func() { fired = append(fired, s.Now()) })
	s.After(30*Millisecond, func() { fired = append(fired, s.Now()) })
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	inject := make(chan func(), 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		inject <- func() { fired = append(fired, s.Now()) }
	}()
	s.RunRealtime(ctx, 2, inject) // scale 2: 10ms sim = 20ms wall
	elapsed := time.Since(start)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	// The injection (50ms wall / scale 2 = ~25ms sim) interleaves between
	// the two timers, and everything fires in simulated-time order.
	if fired[0] != 10*Millisecond || fired[2] != 30*Millisecond {
		t.Fatalf("fired at %v", fired)
	}
	if fired[1] < 20*Millisecond || fired[1] > 30*Millisecond {
		t.Fatalf("injection at sim %v, want ~25ms", fired[1])
	}
	if elapsed < 250*time.Millisecond {
		t.Fatalf("RunRealtime returned before ctx expiry: %v", elapsed)
	}
}

func TestRunRealtimeClosedInjectReturns(t *testing.T) {
	s := New(1)
	inject := make(chan func())
	close(inject)
	done := make(chan struct{})
	go func() {
		s.RunRealtime(context.Background(), 1, inject)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("RunRealtime did not return on closed inject channel")
	}
}

// timerOwner stands in for a protocol engine with a state timer.
type timerOwner struct{ fired int }

func (o *timerOwner) onTimeout() { o.fired++ }

// TestCallAllocationFree pins the trampoline's point: arming and firing a
// method through Call allocates nothing, where a method value would.
func TestCallAllocationFree(t *testing.T) {
	s := New(1)
	o := &timerOwner{}
	if n := statecheck.Mallocs(100, func() {
		s.AtPriorityCall(s.Now()+1, 0, Call[*timerOwner], o, (*timerOwner).onTimeout)
		s.Step()
	}); n != 0 {
		t.Fatalf("arming and firing through Call allocated %d times in 100 runs, want 0", n)
	}
	if o.fired != 400 {
		t.Fatalf("Call trampoline fired the method %d times, want 400", o.fired)
	}
}

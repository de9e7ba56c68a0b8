package sim

import (
	"slices"
	"sort"
	"testing"
)

// This file checks the event queue against a reference model that keeps
// its pending events in a plain slice and sorts it whenever it needs the
// earliest one. The model restates the queue's contract — firing order,
// the purge and compaction policy, the free-list count, the counters, and
// how handles answer once their record is gone — with none of the heap.

// refEvent is one scheduled event as the model sees it.
type refEvent struct {
	id        int // label the callback logs when it fires
	when      Time
	prio      int
	seq       uint64
	cancelled bool
	pending   bool
	stop      bool    // the callback calls Stop
	sim       *refSim // the simulator it was scheduled on
}

// refSim is the model of one simulator.
type refSim struct {
	s          *Simulator
	now        Time
	seq        uint64
	queue      []*refEvent
	ncancelled int
	fired      uint64
	maxq       int
	free       int
	stopped    bool
}

// refHandle pairs a real handle with the model of its event.
type refHandle struct {
	h         Event
	ev        *refEvent
	cancelled bool // Cancel was called through this handle
}

func (m *refSim) sortQueue() {
	sort.Slice(m.queue, func(i, j int) bool {
		a, b := m.queue[i], m.queue[j]
		if a.when != b.when {
			return a.when < b.when
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.seq < b.seq
	})
}

// remove drops the queued events drop selects and returns them to the
// free list.
func (m *refSim) remove(drop func(*refEvent) bool) {
	kept := m.queue[:0]
	for _, ev := range m.queue {
		if drop(ev) {
			ev.pending = false
			m.free++
			if ev.cancelled {
				m.ncancelled--
			}
		} else {
			kept = append(kept, ev)
		}
	}
	m.queue = kept
}

func (m *refSim) push(ev *refEvent) {
	ev.pending, ev.sim = true, m
	m.queue = append(m.queue, ev)
	if len(m.queue) > m.maxq {
		m.maxq = len(m.queue)
	}
	if m.free > 0 {
		m.free--
	}
}

// purge restates the queue's policy: drop cancelled events at the head,
// and compact once cancelled ones outnumber live ones in a queue of at
// least 64.
func (m *refSim) purge() {
	m.sortQueue()
	for len(m.queue) > 0 && m.queue[0].cancelled {
		head := m.queue[0]
		m.remove(func(ev *refEvent) bool { return ev == head })
	}
	if m.ncancelled > len(m.queue)/2 && len(m.queue) >= 64 {
		m.remove(func(ev *refEvent) bool { return ev.cancelled })
	}
}

// step fires the earliest live event, logging its id.
func (m *refSim) step(log *[]int) bool {
	m.purge()
	if len(m.queue) == 0 {
		return false
	}
	head := m.queue[0]
	m.remove(func(ev *refEvent) bool { return ev == head })
	m.now = head.when
	m.fired++
	*log = append(*log, head.id)
	if head.stop {
		m.stopped = true
	}
	return true
}

func (m *refSim) run(until Time, log *[]int) {
	m.stopped = false
	for !m.stopped {
		m.purge()
		if len(m.queue) == 0 {
			break
		}
		if m.queue[0].when > until {
			m.now = until
			return
		}
		m.step(log)
	}
	if !m.stopped && m.now < until {
		m.now = until
	}
}

// freeLen reports the recycled-record pool size.
func (s *Simulator) freeLen() int { return len(s.free) }

// dropAll discards every pending event, fired or not, recycling the records.
func (s *Simulator) dropAll() {
	for _, x := range s.queue {
		s.recycle(x.rec)
	}
	s.queue = s.queue[:0]
	s.ncancelled = 0
}

// live reports whether the handle still refers to a pending event in its
// owning simulator (not fired, not cancelled-and-reclaimed).
func (r Event) live() bool { return r.rec() != nil }

// queueHarness drives a real simulator and the model with the same
// operations and compares them after each one.
type queueHarness struct {
	t       *testing.T
	cur     *refSim
	handles []*refHandle
	events  int
	got     []int // ids in real firing order
	want    []int // ids in model firing order
}

// fire is the callback of every event the harness schedules.
func (q *queueHarness) fire(ev *refEvent) {
	q.got = append(q.got, ev.id)
	if ev.stop {
		q.cur.s.Stop()
	}
}

func fireCall(a, b any) { a.(*queueHarness).fire(b.(*refEvent)) }

func (q *queueHarness) newEvent(when Time, prio int, stop bool) *refEvent {
	q.events++
	return &refEvent{id: q.events, when: when, prio: prio, stop: stop}
}

// schedule adds an event through one of the three scheduling calls.
func (q *queueHarness) schedule(kind int, d Duration, prio int, stop bool) {
	m := q.cur
	if kind == 0 {
		prio = 0
	}
	m.seq++
	ev := q.newEvent(m.now+d, prio, stop)
	ev.seq = m.seq
	var h Event
	switch kind {
	case 0:
		h = m.s.At(ev.when, func() { q.fire(ev) })
	case 1:
		h = m.s.AtPriority(ev.when, prio, func() { q.fire(ev) })
	default:
		h = m.s.AtPriorityCall(ev.when, prio, fireCall, q, ev)
	}
	m.push(ev)
	q.handles = append(q.handles, &refHandle{h: h, ev: ev})
}

func (q *queueHarness) cancel(k int) {
	if len(q.handles) == 0 {
		return
	}
	rh := q.handles[k%len(q.handles)]
	rh.h.Cancel()
	rh.cancelled = true
	if rh.ev.pending && !rh.ev.cancelled {
		rh.ev.cancelled = true
		rh.ev.sim.ncancelled++
	}
}

// recycle hands the current simulator's storage to a fresh one, which
// becomes current. The dead simulator's events are dropped, and
// scheduling on it must panic.
func (q *queueHarness) recycle() {
	dead := q.cur
	n := &refSim{s: New(1)}
	n.s.Recycle(dead.s)
	for _, ev := range dead.queue {
		ev.pending = false
	}
	dead.queue = nil
	q.cur = n
	func() {
		defer func() {
			if recover() == nil {
				q.t.Fatal("scheduling on a recycled simulator did not panic")
			}
		}()
		dead.s.At(dead.now, func() {})
	}()
}

// check compares everything observable.
func (q *queueHarness) check(op string) {
	q.t.Helper()
	m, s := q.cur, q.cur.s
	if !slices.Equal(q.got, q.want) {
		q.t.Fatalf("after %s: fired %v, model fired %v", op, q.got, q.want)
	}
	if s.Now() != m.now || s.Pending() != len(m.queue) || s.Fired() != m.fired ||
		s.MaxQueued() != m.maxq || s.freeLen() != m.free {
		q.t.Fatalf("after %s: now=%v pending=%d fired=%d maxq=%d free=%d, model now=%v pending=%d fired=%d maxq=%d free=%d",
			op, s.Now(), s.Pending(), s.Fired(), s.MaxQueued(), s.freeLen(),
			m.now, len(m.queue), m.fired, m.maxq, m.free)
	}
	for i, rh := range q.handles {
		live := rh.ev.pending
		cancelled := rh.cancelled
		if live {
			cancelled = rh.ev.cancelled
		}
		if rh.h.live() != live || rh.h.When() != rh.ev.when || rh.h.Cancelled() != cancelled || rh.h.IsZero() {
			q.t.Fatalf("after %s: handle %d (event %d) live=%t when=%v cancelled=%t zero=%t, model live=%t when=%v cancelled=%t",
				op, i, rh.ev.id, rh.h.live(), rh.h.When(), rh.h.Cancelled(), rh.h.IsZero(), live, rh.ev.when, cancelled)
		}
	}
}

// runQueueOps interprets data as a sequence of queue operations. Each
// operation is an opcode byte and two argument bytes; scheduling is the
// most common, resets (dropAll, Recycle) the rarest, so queues grow
// long enough to compact.
func runQueueOps(t *testing.T, data []byte) {
	q := &queueHarness{t: t, cur: &refSim{s: New(1)}}
	for len(data) >= 3 {
		op, a, b := data[0], int(data[1]), int(data[2])
		data = data[3:]
		var name string
		switch {
		case op < 100:
			name = "schedule"
			q.schedule(int(op)%3, Duration(a%16), b%4-2, b&0x80 != 0)
		case op < 160:
			name = "Cancel"
			q.cancel(a<<8 | b)
		case op < 190:
			name = "Step"
			ok := q.cur.s.Step()
			if want := q.cur.step(&q.want); ok != want {
				t.Fatalf("Step() = %t, model %t", ok, want)
			}
		case op < 210:
			name = "Run"
			until := q.cur.now + Time(a%32)
			q.cur.s.Run(until)
			q.cur.run(until, &q.want)
		case op < 225:
			name = "NextEventTime"
			when, ok := q.cur.s.NextEventTime()
			q.cur.purge()
			if ok != (len(q.cur.queue) > 0) || ok && when != q.cur.queue[0].when {
				t.Fatalf("NextEventTime() = %v, %t; model has %d pending", when, ok, len(q.cur.queue))
			}
		case op < 235:
			name = "ForceCompact"
			q.cur.s.ForceCompact()
			q.cur.remove(func(ev *refEvent) bool { return ev.cancelled })
		case op < 242:
			// Reserved: a no-op, so the checked-in corpus keeps decoding
			// every other opcode as before.
			name = "nop"
		case op < 248:
			name = "Recycle"
			q.recycle()
		default:
			name = "dropAll"
			q.cur.s.dropAll()
			q.cur.remove(func(*refEvent) bool { return true })
		}
		q.check(name)
	}
}

// FuzzQueueMatchesReference runs random operation sequences against the
// queue and the reference model. The seed corpus in testdata/fuzz covers
// long queues that compact, Stop inside Run, and recycling.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 3, 1, 2, 3, 2, 170, 0, 0, 200, 31, 0})
	f.Fuzz(runQueueOps)
}

// TestStopDoesNotAdvanceClock: a Run that Stop ends leaves the clock at the
// stopping event, so the events still pending before its horizon fire on
// the next Run with the clock moving forward.
func TestStopDoesNotAdvanceClock(t *testing.T) {
	s := New(1)
	var fired []Time
	s.At(10*Second, func() { fired = append(fired, s.Now()); s.Stop() })
	s.At(20*Second, func() { fired = append(fired, s.Now()) })
	s.Run(100 * Second)
	if s.Now() != 10*Second || s.Pending() != 1 {
		t.Fatalf("after a stopped Run(100s): now=%v pending=%d, want 10s and 1", s.Now(), s.Pending())
	}
	s.Run(200 * Second)
	if len(fired) != 2 || fired[1] != 20*Second || s.Now() != 200*Second {
		t.Fatalf("fired at %v, now=%v; want [10s 20s] and 200s", fired, s.Now())
	}
}

// TestRecycledEventStorage pins what Recycle does to the event queue: the
// recipient schedules into the dead simulator's storage without
// reallocating it, reads as a fresh simulator, and the dead simulator's
// handles answer from their snapshots while scheduling on it panics.
func TestRecycledEventStorage(t *testing.T) {
	const n = 100
	dead := New(1)
	var hs []Event
	for i := 0; i < n; i++ {
		hs = append(hs, dead.At(Time(i+1), func() {}))
	}
	dead.Run(n / 2)
	hs[n-1].Cancel()
	pendingBefore := dead.Pending()

	s := New(2)
	s.Recycle(dead)
	if dead.Pending() != 0 || s.Pending() != 0 || s.freeLen() != 0 || s.MaxQueued() != 0 {
		t.Fatalf("after Recycle: dead pending=%d (was %d), recipient pending=%d free=%d maxq=%d; want all 0",
			dead.Pending(), pendingBefore, s.Pending(), s.freeLen(), s.MaxQueued())
	}
	for i, h := range hs {
		if h.live() || h.When() != Time(i+1) || h.Cancelled() != (i == n-1) {
			t.Fatalf("dead handle %d: live=%t when=%v cancelled=%t", i, h.live(), h.When(), h.Cancelled())
		}
	}
	hs[n-2].Cancel() // a no-op on the dead simulator, remembered by the handle
	if !hs[n-2].Cancelled() {
		t.Fatal("Cancel through a dead handle was not remembered by it")
	}

	// dead peaked at n queued events, 50 of which it fired and freed.
	if cap(s.slab) < n || cap(s.queue) < n || cap(s.free) < n/2 {
		t.Fatalf("recipient took over slab/heap/free capacity %d/%d/%d, want at least %d/%d/%d",
			cap(s.slab), cap(s.queue), cap(s.free), n, n, n/2)
	}
	slab, queue := &s.slab[:1][0], &s.queue[:1][0]
	fire := func(a, b any) {}
	for i := 0; i < n; i++ {
		s.AtPriorityCall(s.Now()+Time(i+1), 0, fire, nil, nil)
	}
	s.RunAll()
	if &s.slab[0] != slab || &s.queue[:1][0] != queue {
		t.Fatalf("recipient reallocated its slab or heap scheduling %d events into recycled storage", n)
	}
	if s.Fired() != n || s.MaxQueued() != n || s.freeLen() != n {
		t.Fatalf("recipient fired=%d maxq=%d free=%d, want %d, %d, %d", s.Fired(), s.MaxQueued(), s.freeLen(), n, n, n)
	}
	for _, c := range []struct {
		name     string
		schedule func()
	}{
		{"At", func() { dead.At(n, func() {}) }},
		{"AtPriorityCall", func() { dead.AtPriorityCall(n, 0, fire, nil, nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a recycled simulator did not panic", c.name)
				}
			}()
			c.schedule()
		}()
	}
}

// TestPriorityRange: the queue packs priorities into 16 bits, so the
// extremes must keep their order and a priority outside them must panic
// rather than wrap.
func TestPriorityRange(t *testing.T) {
	s := New(1)
	var order []int
	for _, p := range []int{32767, 0, -32768, -1, 1} {
		p := p
		s.AtPriority(5, p, func() { order = append(order, p) })
	}
	s.RunAll()
	if !slices.Equal(order, []int{-32768, -1, 0, 1, 32767}) {
		t.Fatalf("fired priorities %v, want ascending", order)
	}
	for _, p := range []int{32768, -32769} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("priority %d did not panic", p)
				}
			}()
			s.AtPriority(6, p, func() {})
		}()
	}
}

package fault

import (
	"strings"
	"testing"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/macaw"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

// twoStations builds A (sender pad) and B (receiver base) in one cell with a
// 20 pps UDP stream A->B, running the protocol built by f.
func twoStations(t *testing.T, seed int64, f core.MACFactory) (*core.Network, *core.Station, *core.Station) {
	t.Helper()
	n := core.NewNetwork(seed)
	b := n.AddStation("B", geom.V(0, 0, 12), f)
	a := n.AddStation("A", geom.V(4, 3, 6), f)
	n.AddStream(a, b, core.UDP, 20)
	return n, a, b
}

// crashWhen polls cond at high scheduling priority (after watchdog sweeps)
// every 50 µs and crashes st the first time it holds.
func crashWhen(n *core.Network, st *core.Station, cond func() bool, crashedAt *sim.Time) {
	var poll func()
	poll = func() {
		if *crashedAt == 0 && cond() {
			st.Crash()
			*crashedAt = n.Sim.Now()
			return
		}
		n.Sim.AtPriority(n.Sim.Now()+50*sim.Microsecond, 2, poll)
	}
	n.Sim.AtPriority(0, 2, poll)
}

// TestReceiverKilledBetweenCTSAndData is the ISSUE 2 satellite regression:
// the receiver dies after granting a CTS but before the data lands. The
// sender must ride its timeout path (WFACK/WFCTS), retry within the budget,
// drop the packet, and resume cleanly when the receiver returns — no wedged
// FSM, no retry loop, no stale backoff entry.
func TestReceiverKilledBetweenCTSAndData(t *testing.T) {
	cases := []struct {
		name     string
		factory  core.MACFactory
		ctsState string // receiver state right after its CTS is sent
	}{
		{"macaw", core.MACAWFactory(macaw.DefaultOptions()), "WFDS"},
		{"maca", core.MACAFactory(), "WFDATA"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, a, b := twoStations(t, 11, tc.factory)
			w := NewWatchdog(n)
			w.Interval = 20 * sim.Millisecond
			w.MaxQueue = 256
			w.Start(0)

			var crashedAt sim.Time
			crashWhen(n, b, func() bool {
				return b.MAC().FSMState() == tc.ctsState
			}, &crashedAt)
			// Restart well after the sender has exhausted its retries.
			restartAt := sim.Time(0)
			n.At(2*sim.Second, func() {
				if crashedAt != 0 && b.Radio().Enabled() == false {
					b.Restart()
					restartAt = n.Sim.Now()
				}
			})

			n.Run(4*sim.Second, 100*sim.Millisecond)

			if crashedAt == 0 {
				t.Fatalf("receiver never reached %s; scenario did not trigger", tc.ctsState)
			}
			if restartAt == 0 {
				t.Fatalf("receiver never restarted")
			}
			if a.MAC().Stats().Drops == 0 {
				t.Errorf("sender never dropped the abandoned packet\n%s", w.Dump())
			}
			if b.MAC().Stats().DataReceived == 0 {
				t.Errorf("traffic did not resume after restart\n%s", w.Dump())
			}
			if stale := w.StaleBackoff(); len(stale) > 0 {
				t.Errorf("stale backoff entries after recovery: %v", stale)
			}
			if w.Checks() == 0 {
				t.Fatalf("watchdog never ran")
			}
		})
	}
}

// TestCrashRestartDeterministic: the same seed reproduces a faulted run
// byte-for-byte, including fault counters.
func TestCrashRestartDeterministic(t *testing.T) {
	run := func() (string, string) {
		n, a, b := twoStations(t, 7, core.MACAWFactory(macaw.DefaultOptions()))
		_ = a
		in := NewInjector(n)
		in.CrashRestart("B", 1*sim.Second, 1300*sim.Millisecond)
		in.BurstChannel(0, 0.9, 300*sim.Millisecond, 80*sim.Millisecond)
		in.AsymmetricLoss("A", "B", 0.2)
		in.Walk("A", 500*sim.Millisecond, 200*sim.Millisecond,
			geom.V(5, 3, 6), geom.V(6, 3, 6), geom.V(4, 3, 6))
		w := NewWatchdog(n)
		w.MaxQueue = 256
		w.Start(0)
		res := n.Run(3*sim.Second, 200*sim.Millisecond)
		_ = b
		return res.String(), in.Counters().String()
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 {
		t.Fatalf("results differ across identical seeds:\n%s\nvs\n%s", r1, r2)
	}
	if c1 != c2 {
		t.Fatalf("counters differ: %q vs %q", c1, c2)
	}
	if !strings.Contains(c1, "crashes=1") || !strings.Contains(c1, "restarts=1") || !strings.Contains(c1, "moves=3") {
		t.Fatalf("counters missing events: %q", c1)
	}
}

// TestGilbertElliottTrajectoryDeterministic: the burst-loss state trajectory
// is a pure function of the clock and seed — sampling it does not perturb it.
func TestGilbertElliottTrajectoryDeterministic(t *testing.T) {
	sample := func(extraSamples bool) []bool {
		s := sim.New(99)
		g := phy.NewGilbertElliott(s, 0, 1, 50*sim.Millisecond, 20*sim.Millisecond)
		var tr []bool
		for i := 1; i <= 200; i++ {
			at := sim.Time(i) * 10 * sim.Millisecond
			s.At(at, func() { tr = append(tr, g.Bad()) })
			if extraSamples {
				// Extra interleaved samples must not shift the
				// trajectory seen at the common instants.
				s.At(at+3*sim.Millisecond, func() { g.Bad() })
			}
		}
		s.RunAll()
		return tr
	}
	base := sample(false)
	dense := sample(true)
	var bads int
	for i := range base {
		if base[i] != dense[i] {
			t.Fatalf("trajectory diverged at sample %d", i)
		}
		if base[i] {
			bads++
		}
	}
	if bads == 0 || bads == len(base) {
		t.Fatalf("degenerate trajectory: %d/%d bad samples", bads, len(base))
	}
}

// stubEngine supplies the inert remainder of the mac.Engine surface for the
// watchdog test stubs.
type stubEngine struct{ halted bool }

func (s *stubEngine) Halt()            { s.halted = true }
func (s *stubEngine) Halted() bool     { return s.halted }
func (s *stubEngine) Protocol() string { return "stub" }

// wedgedMAC is a stub engine stuck outside IDLE with no timer — the exact
// pathology the watchdog exists to catch.
type wedgedMAC struct {
	stubEngine
	stats mac.Stats
}

func (w *wedgedMAC) Enqueue(*mac.Packet)       {}
func (w *wedgedMAC) QueueLen() int             { return 1 }
func (w *wedgedMAC) Stats() mac.Stats          { return w.stats }
func (w *wedgedMAC) RadioReceive(*frame.Frame) {}
func (w *wedgedMAC) RadioCarrier(bool)         {}
func (w *wedgedMAC) FSMState() string          { return "WFCTS" }
func (w *wedgedMAC) TimerPending() bool        { return false }
func (w *wedgedMAC) TimerWhen() sim.Time       { return -1 }

// loopingMAC looks idle but accumulates retries without ever completing or
// dropping anything.
type loopingMAC struct {
	stubEngine
	retries int
}

func (l *loopingMAC) Enqueue(*mac.Packet) {}
func (l *loopingMAC) QueueLen() int       { return 0 }
func (l *loopingMAC) Stats() mac.Stats {
	l.retries += 100
	return mac.Stats{Retries: l.retries}
}
func (l *loopingMAC) RadioReceive(*frame.Frame) {}
func (l *loopingMAC) RadioCarrier(bool)         {}
func (l *loopingMAC) FSMState() string          { return "IDLE" }
func (l *loopingMAC) TimerPending() bool        { return false }
func (l *loopingMAC) TimerWhen() sim.Time       { return -1 }

func TestWatchdogCatchesWedgeAndRetryLoop(t *testing.T) {
	cases := []struct {
		name string
		mk   core.MACFactory
		want string
	}{
		{"wedge", func(env *mac.Env) mac.Engine { return &wedgedMAC{} }, "wedged"},
		{"retry-loop", func(env *mac.Env) mac.Engine { return &loopingMAC{} }, "retry loop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := core.NewNetwork(1)
			n.AddStation("X", geom.V(0, 0, 6), tc.mk)
			w := NewWatchdog(n)
			w.Interval = 10 * sim.Millisecond
			var reports []string
			w.OnViolation = func(r string) { reports = append(reports, r) }
			w.Start(0)
			n.Sim.Run(500 * sim.Millisecond)
			if len(reports) == 0 {
				t.Fatalf("watchdog missed the %s", tc.name)
			}
			if !strings.Contains(reports[0], tc.want) {
				t.Fatalf("report lacks %q:\n%s", tc.want, reports[0])
			}
			if !strings.Contains(reports[0], "station dump") {
				t.Fatalf("report lacks FSM dump:\n%s", reports[0])
			}
		})
	}
}

// TestWatchdogQueueBound: a queue past MaxQueue is reported as a leak.
func TestWatchdogQueueBound(t *testing.T) {
	n, a, _ := twoStations(t, 3, core.MACAWFactory(macaw.DefaultOptions()))
	w := NewWatchdog(n)
	w.Interval = 10 * sim.Millisecond
	w.MaxQueue = 2
	var reports []string
	w.OnViolation = func(r string) { reports = append(reports, r) }
	w.Start(0)
	n.At(0, func() {
		for i := 0; i < 5; i++ {
			a.MAC().Enqueue(&mac.Packet{Dst: 1, Size: 512})
		}
	})
	n.Sim.Run(30 * sim.Millisecond)
	found := false
	for _, r := range reports {
		if strings.Contains(r, "queue leak") {
			found = true
		}
	}
	if !found {
		t.Fatalf("queue past bound not reported: %v", reports)
	}
}

// TestStaleBackoffDetection: an entry whose SeenESN exceeds anything the
// peer's current life has issued is reported stale.
func TestStaleBackoffDetection(t *testing.T) {
	n, a, b := twoStations(t, 5, core.MACAWFactory(macaw.DefaultOptions()))
	w := NewWatchdog(n)
	// Fabricate the post-restart situation directly: A remembers a high
	// exchange number from B's previous life while B's fresh policy has
	// barely started counting.
	apd := a.MAC().(interface{ Policy() backoff.Policy }).Policy().(*backoff.PerDest)
	bpd := b.MAC().(interface{ Policy() backoff.Policy }).Policy().(*backoff.PerDest)
	apd.Peer(b.ID()).SeenESN = 500
	bpd.Peer(a.ID()).SendESN = 2
	stale := w.StaleBackoff()
	if len(stale) != 1 || !strings.Contains(stale[0], "stale entry") {
		t.Fatalf("stale entry not detected: %v", stale)
	}
	// Resync (what the backoff fix does on the first post-restart frame)
	// clears the report.
	apd.Peer(b.ID()).SeenESN = 2
	if stale := w.StaleBackoff(); len(stale) != 0 {
		t.Fatalf("resynced entry still reported: %v", stale)
	}
}

// TestInjectorMinDowntime: a restart inside the in-flight window is a
// schedule bug and must be rejected loudly.
func TestInjectorMinDowntime(t *testing.T) {
	n, _, _ := twoStations(t, 1, core.MACAFactory())
	in := NewInjector(n)
	defer func() {
		if recover() == nil {
			t.Fatalf("restart within MinDowntime accepted")
		}
	}()
	in.CrashRestart("B", sim.Second, sim.Second+MinDowntime/2)
}

// TestHaltedEnqueueDrops: a halted MAC reports enqueued packets as dropped
// instead of leaking them.
func TestHaltedEnqueueDrops(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   core.MACFactory
	}{
		{"macaw", core.MACAWFactory(macaw.DefaultOptions())},
		{"maca", core.MACAFactory()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, a, _ := twoStations(t, 1, tc.mk)
			n.At(10*sim.Millisecond, func() { a.Crash() })
			n.At(20*sim.Millisecond, func() {
				a.MAC().Enqueue(&mac.Packet{Dst: 1, Size: 512})
				if a.MAC().QueueLen() != 0 {
					t.Errorf("halted MAC queued a packet")
				}
			})
			n.Sim.Run(30 * sim.Millisecond)
			if a.Dropped() == 0 {
				t.Fatalf("halted enqueue not reported as drop")
			}
		})
	}
}

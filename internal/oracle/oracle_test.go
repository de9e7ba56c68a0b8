package oracle

import (
	"strings"
	"testing"

	"macaw/internal/core"
	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
)

// fakeClock lets a test place each injected event at an exact instant.
type fakeClock struct{ t sim.Time }

// testMonitor builds a monitor wired to a controllable clock, bypassing the
// network so each violation class can be injected directly through the
// mac.Observer interface.
func testMonitor(kind protoKind, opts macaw.Options) (*Oracle, *monitor, *fakeClock) {
	o := New(42)
	clk := &fakeClock{}
	m := newMonitor(o, 1, "S1", func() sim.Time { return clk.t }, nil)
	m.kind = kind
	m.opts = opts
	o.mons[1] = m
	return o, m, clk
}

// fr builds a frame with well-formed backoff headers.
func fr(t frame.Type, src, dst frame.NodeID, seq uint32) *frame.Frame {
	return &frame.Frame{Type: t, Src: src, Dst: dst, Seq: seq,
		LocalBackoff: 2, RemoteBackoff: frame.IDontKnow, DataBytes: 512}
}

// TestViolationClasses injects each violation class through the observer
// interface and asserts that exactly the expected rule fires.
func TestViolationClasses(t *testing.T) {
	cases := []struct {
		name  string
		kind  protoKind
		opts  macaw.Options
		drive func(m *monitor, clk *fakeClock)
		want  []string
	}{
		{
			name: "legal WithACK exchange, receiver side",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveRx(fr(frame.RTS, 2, 1, 7))
				m.ObserveTx(fr(frame.CTS, 1, 2, 7))
				m.ObserveRx(fr(frame.DATA, 2, 1, 7))
				m.ObserveDeliver(fr(frame.DATA, 2, 1, 7))
				m.ObserveTx(fr(frame.ACK, 1, 2, 7))
			},
		},
		{
			name: "legal Full exchange, sender side",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.Full},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveRx(fr(frame.CTS, 2, 1, 7))
				m.ObserveTx(fr(frame.DS, 1, 2, 7))
				m.ObserveTx(fr(frame.DATA, 1, 2, 7))
			},
		},
		{
			name: "forged DATA without a granting CTS",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveTx(fr(frame.DATA, 1, 2, 7))
			},
			want: []string{RuleORDDATA},
		},
		{
			name: "DATA skipping the DS announcement in Full",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.Full},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveRx(fr(frame.CTS, 2, 1, 7))
				m.ObserveTx(fr(frame.DATA, 1, 2, 7))
			},
			want: []string{RuleORDDATA},
		},
		{
			name: "DS outside the Full exchange",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveRx(fr(frame.CTS, 2, 1, 7))
				m.ObserveTx(fr(frame.DS, 1, 2, 7))
			},
			want: []string{RuleORDDS},
		},
		{
			name: "CTS without an unanswered RTS",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveTx(fr(frame.CTS, 1, 2, 7))
			},
			want: []string{RuleORDCTS},
		},
		{
			name: "ACK without matching received DATA",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveTx(fr(frame.ACK, 1, 2, 7))
			},
			want: []string{RuleORDACK},
		},
		{
			name: "RRTS without a deferred RTS",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK, RRTS: true},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveTx(fr(frame.RRTS, 1, 2, 7))
			},
			want: []string{RuleORDRRTS},
		},
		{
			name: "early transmit during defer",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveRx(fr(frame.CTS, 3, 2, 7)) // overheard: defer for the data
				clk.t = m.horizon                   // one slot too early
				m.ObserveTx(fr(frame.RTS, 1, 2, 8))
			},
			want: []string{RuleDEF1},
		},
		{
			name: "transmit one slot after the horizon is legal",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveRx(fr(frame.CTS, 3, 2, 7))
				clk.t = m.horizon + m.o.cfg.Slot()
				m.ObserveTx(fr(frame.RTS, 1, 2, 8))
			},
		},
		{
			name: "RRTS-solicited RTS is exempt from the defer rule",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK, RRTS: true},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveRx(fr(frame.CTS, 3, 4, 7)) // overheard: defer horizon opens
				m.ObserveRx(fr(frame.RRTS, 2, 1, 8))
				clk.t = m.horizon / 2 // well inside the defer window
				m.ObserveTx(fr(frame.RTS, 1, 2, 8))
			},
		},
		{
			name: "out-of-range local backoff header",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				f := fr(frame.RTS, 1, 2, 7)
				f.LocalBackoff = 100
				m.ObserveTx(f)
			},
			want: []string{RuleHDR1},
		},
		{
			name: "negative remote backoff header that is not I_DONT_KNOW",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				f := fr(frame.RTS, 1, 2, 7)
				f.RemoteBackoff = -7
				m.ObserveTx(f)
			},
			want: []string{RuleHDR1},
		},
		{
			name: "ESN regression toward a destination",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				f := fr(frame.RTS, 1, 2, 7)
				f.ESN = 5
				m.ObserveTx(f)
				g := fr(frame.RTS, 1, 2, 8)
				g.ESN = 3
				m.ObserveTx(g)
			},
			want: []string{RuleHDR2},
		},
		{
			name: "peer reboot resets the ESN expectation",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				f := fr(frame.RTS, 1, 2, 7)
				f.ESN = 5
				m.ObserveTx(f)
				m.forgetPeer(2) // station 2 restarted
				g := fr(frame.RTS, 1, 2, 8)
				g.ESN = 1
				m.ObserveTx(g)
			},
		},
		{
			name: "duplicate delivery to transport",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveDeliver(fr(frame.DATA, 2, 1, 7))
				m.ObserveDeliver(fr(frame.DATA, 2, 1, 7))
			},
			want: []string{RuleDEL2},
		},
		{
			name: "delivery sequence regression",
			kind: kindMACA,
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveDeliver(fr(frame.DATA, 2, 1, 7))
				m.ObserveDeliver(fr(frame.DATA, 2, 1, 3))
			},
			want: []string{RuleDEL1},
		},
		{
			name: "unicast and multicast streams are tracked independently",
			kind: kindMACAW, opts: macaw.Options{Exchange: macaw.WithACK},
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveDeliver(fr(frame.DATA, 2, 1, 9))
				m.ObserveDeliver(fr(frame.DATA, 2, frame.Broadcast, 2))
			},
		},
		{
			name: "CSMA is exempt from handshake and delivery rules",
			kind: kindCSMA,
			drive: func(m *monitor, clk *fakeClock) {
				m.ObserveTx(fr(frame.DATA, 1, 2, 7))
				m.ObserveRx(fr(frame.DATA, 2, 1, 4))
				m.ObserveDeliver(fr(frame.DATA, 2, 1, 4))
				m.ObserveRx(fr(frame.DATA, 2, 1, 4))      // retransmission after a lost ACK
				m.ObserveDeliver(fr(frame.DATA, 2, 1, 4)) // duplicate delivery is CSMA-legal
				m.ObserveTx(fr(frame.ACK, 1, 2, 4))       // but ACK ordering still holds
			},
		},
		{
			name: "CSMA header rules still apply",
			kind: kindCSMA,
			drive: func(m *monitor, clk *fakeClock) {
				f := fr(frame.DATA, 1, 2, 7)
				f.LocalBackoff = -3
				m.ObserveTx(f)
			},
			want: []string{RuleHDR1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, m, clk := testMonitor(tc.kind, tc.opts)
			tc.drive(m, clk)
			var got []string
			for _, v := range o.Violations() {
				got = append(got, v.Rule)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("rules reported = %v, want %v\n%s", got, tc.want, o.Report())
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("rules reported = %v, want %v", got, tc.want)
				}
			}
			if len(tc.want) == 0 && o.Err() != nil {
				t.Fatalf("Err() = %v, want nil", o.Err())
			}
		})
	}
}

// TestReportIsReplayable asserts a violation report carries everything needed
// to reproduce it: seed, station, rule id, and the trailing event window.
func TestReportIsReplayable(t *testing.T) {
	o, m, clk := testMonitor(kindMACAW, macaw.Options{Exchange: macaw.WithACK})
	clk.t = 1_000_000
	m.ObserveRx(fr(frame.RTS, 2, 1, 7))
	m.ObserveTx(fr(frame.DATA, 1, 2, 9))
	if o.Err() == nil {
		t.Fatal("expected a violation")
	}
	v := o.Violations()[0]
	if v.Rule != RuleORDDATA || v.Station != "S1" || v.Seed != 42 || v.At != clk.t {
		t.Fatalf("violation context wrong: %+v", v)
	}
	if len(v.Events) == 0 {
		t.Fatal("violation carries no trace events")
	}
	rep := o.Report()
	for _, needle := range []string{"ORD-DATA", "-seed 42", "S1", "last events:"} {
		if !strings.Contains(rep, needle) {
			t.Fatalf("report missing %q:\n%s", needle, rep)
		}
	}
}

// TestRingBounded asserts the per-station event window stays at ringSize.
func TestRingBounded(t *testing.T) {
	_, m, _ := testMonitor(kindMACAW, macaw.Options{Exchange: macaw.WithACK})
	for i := 0; i < 10*ringSize; i++ {
		m.ObserveQueue("push", 2, i)
	}
	ev := m.events()
	if len(ev) != ringSize {
		t.Fatalf("ring length = %d, want %d", len(ev), ringSize)
	}
	if !strings.Contains(ev[0].Note, "len=216") || !strings.Contains(ev[ringSize-1].Note, "len=239") {
		t.Fatalf("ring did not keep the newest events in order: first %v, last %v", ev[0], ev[ringSize-1])
	}
}

// TestCleanRunEndToEnd attaches the oracle to a real contended three-station
// MACAW network — including a crash/restart mid-run — and expects zero
// violations and untouched results.
func TestCleanRunEndToEnd(t *testing.T) {
	run := func(audit bool) (core.Results, int) {
		n := core.NewNetwork(7)
		var o *Oracle
		if audit {
			o = New(7)
			o.Attach(n)
		}
		f := core.MACAWFactory(macaw.DefaultOptions())
		a := n.AddStation("A", geom.V(0, 0, 6), f)
		b := n.AddStation("B", geom.V(6, 0, 6), f)
		c := n.AddStation("C", geom.V(3, 5, 6), f)
		n.AddStream(a, b, core.UDP, 200)
		n.AddStream(c, b, core.UDP, 200)
		n.AddStream(b, a, core.UDP, 100)
		n.At(300*sim.Millisecond, func() { c.Crash() })
		n.At(500*sim.Millisecond, func() { c.Restart() })
		res := n.Run(1000*sim.Millisecond, 0)
		if o == nil {
			return res, 0
		}
		return res, o.Total()
	}
	plain, _ := run(false)
	audited, total := run(true)
	if total != 0 {
		t.Fatalf("oracle found %d violations in a healthy run", total)
	}
	if plain.String() != audited.String() {
		t.Fatalf("audit changed results:\nplain:   %s\naudited: %s", plain, audited)
	}
}

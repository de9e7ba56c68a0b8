package oracle

import (
	"reflect"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
	"macaw/internal/trace"
)

// TestViolationEventsRendered pins the report context of a seeded violation:
// every kind of ring entry renders to the trace event, and the Mark note
// text, that reports have always carried.
func TestViolationEventsRendered(t *testing.T) {
	o, m, clk := testMonitor(kindMACAW, macaw.Options{Exchange: macaw.WithACK})
	clk.t = 1_500_000
	m.ObserveQueue("push", 2, 1)
	m.ObserveState("IDLE", "CONTEND")
	m.ObserveTimer(2_250_000)
	clk.t = 2_000_000
	m.ObserveTimer(-1)
	m.ObserveRx(fr(frame.RTS, 2, 1, 7))
	m.ObserveRx(fr(frame.DATA, 2, 1, 7))
	m.ObserveDeliver(fr(frame.DATA, 2, 1, 7))
	clk.t = 3_000_000
	m.ObserveTx(fr(frame.DATA, 1, 2, 9)) // no granting CTS: ORD-DATA
	if len(o.Violations()) != 1 || o.Violations()[0].Seed != 42 {
		t.Fatalf("violations = %+v, want one ORD-DATA at seed 42", o.Violations())
	}
	mark := func(at sim.Time, note string) trace.Event {
		return trace.Event{At: at, Station: "S1", Kind: trace.Mark, Note: note}
	}
	want := []trace.Event{
		mark(1_500_000, "queue push dst=N2 len=1"),
		mark(1_500_000, "state IDLE -> CONTEND"),
		mark(1_500_000, "timer armed for 0.002250s"),
		mark(2_000_000, "timer cancelled"),
		{At: 2_000_000, Station: "S1", Kind: trace.Receive, Type: frame.RTS, Src: 2, Dst: 1, Seq: 7},
		{At: 2_000_000, Station: "S1", Kind: trace.Receive, Type: frame.DATA, Src: 2, Dst: 1, Seq: 7},
		mark(2_000_000, "deliver src=N2 seq=7"),
		{At: 3_000_000, Station: "S1", Kind: trace.Transmit, Type: frame.DATA, Src: 1, Dst: 2, Seq: 9},
	}
	if got := o.Violations()[0].Events; !reflect.DeepEqual(got, want) {
		t.Fatalf("violation events:\n got %+v\nwant %+v", got, want)
	}
}

// TestReportHooksAllocationFree: the report-context hooks only push typed
// ring entries, so on a warmed monitor they allocate nothing.
func TestReportHooksAllocationFree(t *testing.T) {
	_, m, clk := testMonitor(kindMACAW, macaw.Options{Exchange: macaw.WithACK})
	data := fr(frame.DATA, 2, 1, 0)
	hooks := func() {
		clk.t += sim.Millisecond
		data.Seq++
		m.ObserveState("IDLE", "CONTEND")
		m.ObserveTimer(clk.t + sim.Millisecond)
		m.ObserveTimer(-1)
		m.ObserveQueue("push", 2, 3)
		m.ObserveDeliver(data)
	}
	hooks()
	if n := statecheck.Mallocs(100, hooks); n != 0 {
		t.Fatalf("report hooks allocate %d times over the runs, want 0", n)
	}
}

package fault

import (
	"testing"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// rrtsTxLog records when a named station transmits an RRTS, via the passive
// MAC observer hook.
type rrtsTxLog struct {
	s     *sim.Simulator
	from  string
	times []sim.Time
}

type rrtsTxObs struct {
	l    *rrtsTxLog
	name string
}

func (o rrtsTxObs) ObserveTx(f *frame.Frame) {
	if f.Type == frame.RRTS && o.name == o.l.from {
		o.l.times = append(o.l.times, o.l.s.Now())
	}
}
func (o rrtsTxObs) ObserveRx(*frame.Frame)                   {}
func (o rrtsTxObs) ObserveState(string, string)              {}
func (o rrtsTxObs) ObserveTimer(sim.Time)                    {}
func (o rrtsTxObs) ObserveQueue(string, frame.NodeID, int)   {}
func (o rrtsTxObs) ObserveDeliver(*frame.Frame)              {}
func (o rrtsTxObs) ObserveRetry(frame.NodeID)                {}
func (o rrtsTxObs) ObserveDrop(frame.NodeID, mac.DropReason) {}

// TestNoRRTSToCrashedSender: a MACAW receiver holding a pending-RRTS note
// for a sender that crashes must drop the note once the sender has been
// silent past its worst-case retry period, instead of soliciting the dead
// station forever. The figure-6 cells make P1 note B1's deferred RTSes
// continuously; B1 then crashes for good. An RRTS shortly after the crash
// is legitimate — the note cannot know yet — but none may follow once the
// staleness bound has passed.
func TestNoRRTSToCrashedSender(t *testing.T) {
	n := core.NewNetwork(1)
	l := &rrtsTxLog{s: n.Sim, from: "P1"}
	n.AddMACObserver(func(st *core.Station) mac.Observer { return rrtsTxObs{l: l, name: st.Name()} })
	if err := topo.Figure6().Build(n, core.MACAWFactory(macaw.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(n)
	const crashAt = 10 * sim.Second
	in.CrashRestart("B1", crashAt, 0) // never restarts
	n.Run(20*sim.Second, 0)

	// The staleness bound mirrors macaw.rrtsStale: twice the worst-case
	// retry period of a live blocked sender (CTS wait plus a maximal
	// two-ended contention window).
	cfg := mac.DefaultConfig()
	stale := 2 * (cfg.CTSWait() + sim.Duration(2*backoff.DefaultMax)*cfg.Slot())
	var before, late int
	for _, at := range l.times {
		switch {
		case at <= crashAt:
			before++
		case at > crashAt+stale:
			late++
		}
	}
	if before == 0 {
		t.Fatal("choreography broke: P1 never sent an RRTS while B1 was alive")
	}
	if late > 0 {
		t.Fatalf("%d RRTS solicited the crashed sender after the %v staleness bound", late, stale)
	}
}

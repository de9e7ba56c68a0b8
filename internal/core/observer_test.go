package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
)

// fanObs logs every hook into a log shared by all observers, as
// "name hook", so the log shows the order the observers were called in.
type fanObs struct {
	name string
	log  *[]string
}

func (o fanObs) add(hook string)              { *o.log = append(*o.log, o.name+" "+hook) }
func (o fanObs) ObserveTx(*frame.Frame)       { o.add("tx") }
func (o fanObs) ObserveRx(*frame.Frame)       { o.add("rx") }
func (o fanObs) ObserveState(from, to string) { o.add("state " + from + ">" + to) }
func (o fanObs) ObserveDeliver(*frame.Frame)  { o.add("deliver") }
func (o fanObs) ObserveRetry(frame.NodeID)    { o.add("retry") }
func (o fanObs) ObserveDrop(_ frame.NodeID, r mac.DropReason) {
	o.add("drop " + string(r))
}
func (o fanObs) ObserveQueue(op string, _ frame.NodeID, n int) {
	o.add(fmt.Sprintf("queue %s %d", op, n))
}
func (o fanObs) ObserveTimer(at sim.Time) {
	if at < 0 {
		o.add("timer cancel")
		return
	}
	o.add(fmt.Sprintf("timer %d", at))
}

// TestObserverFanOut attaches two logging observer factories and one that
// returns nil to a sender and a receiver, then crashes the receiver so the
// sender retries and drops, and restarts it. Every hook must reach the two
// observers back to back in attachment order, the nil result must be left
// out of the MAC's observers, and each factory must run again for the
// restarted MAC's lifetime.
func TestObserverFanOut(t *testing.T) {
	n := NewNetwork(1)
	var log, calls []string
	serial := 0
	for _, tag := range []string{"a", "nil", "b"} {
		n.AddMACObserver(func(st *Station) mac.Observer {
			calls = append(calls, tag+" "+st.Name())
			if tag == "nil" {
				return nil
			}
			serial++
			return fanObs{name: fmt.Sprintf("%s%d", tag, serial), log: &log}
		})
	}
	p := n.AddStation("P", geom.V(-4, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
	if want := []string{"a P", "nil P", "b P", "a B", "nil B", "b B"}; !slices.Equal(calls, want) {
		t.Fatalf("factory calls %q, want %q", calls, want)
	}
	observers := func(st *Station) []string {
		var names []string
		for _, o := range st.MAC().(*macaw.MACAW).Env.Obs {
			names = append(names, o.(fanObs).name)
		}
		return names
	}
	if got := observers(b); !slices.Equal(got, []string{"a3", "b4"}) {
		t.Fatalf("B's observers %q, want [a3 b4]", got)
	}

	n.AddStream(p, b, UDP, 32)
	n.Start(20*sim.Second, sim.Second)
	n.RunTo(2 * sim.Second)
	b.Crash()
	n.RunTo(10 * sim.Second)
	b.Restart()
	n.RunTo(12 * sim.Second)

	if want := []string{"a B", "nil B", "b B"}; !slices.Equal(calls[6:], want) {
		t.Fatalf("factory calls after Restart %q, want %q", calls[6:], want)
	}
	if got := observers(b); !slices.Equal(got, []string{"a5", "b6"}) {
		t.Fatalf("restarted B's observers %q, want [a5 b6]", got)
	}

	// Pair each a-line with the b-line after it: one MAC's pair of
	// observers, the same hook.
	if len(log)%2 != 0 {
		t.Fatalf("odd log length %d", len(log))
	}
	pairs := map[string]string{"a1": "b2", "a3": "b4", "a5": "b6"}
	hooks := map[string]bool{}
	lifetimes := map[string]bool{}
	for i := 0; i < len(log); i += 2 {
		an, ah, _ := strings.Cut(log[i], " ")
		bn, bh, _ := strings.Cut(log[i+1], " ")
		if pairs[an] != bn || ah != bh {
			t.Fatalf("log[%d:%d] = %q, %q: want one hook reaching a MAC's a then b observer", i, i+2, log[i], log[i+1])
		}
		hook, _, _ := strings.Cut(ah, " ")
		switch {
		case ah == "timer cancel":
			hook = ah
		case hook == "timer":
			hook = "timer arm"
		}
		hooks[hook] = true
		lifetimes[an] = true
	}
	for _, h := range []string{"tx", "rx", "state", "timer arm", "timer cancel", "queue", "deliver", "retry", "drop"} {
		if !hooks[h] {
			t.Errorf("no %s hook in the log", h)
		}
	}
	if !lifetimes["a5"] {
		t.Error("the restarted MAC's observers saw nothing")
	}
}

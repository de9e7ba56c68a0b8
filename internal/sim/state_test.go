package sim

import (
	"strings"
	"testing"
)

// timerOwner stands in for a protocol engine with a state timer.
type timerOwner struct{ fired int }

func (o *timerOwner) onTimeout() { o.fired++ }

func pkgCall(a, b any) {}

// TestAppendStateNamesCallTarget keeps the heap dump self-describing for
// events armed through the Call trampoline: the dump names the method
// expression riding in argB, not the trampoline every such timer shares,
// so a replay divergence still points at the timer that differs.
// Package-level call adapters keep their own names.
func TestAppendStateNamesCallTarget(t *testing.T) {
	s := New(1)
	o := &timerOwner{}
	s.AtPriorityCall(1, 0, Call[*timerOwner], o, (*timerOwner).onTimeout)
	s.AtPriorityCall(2, -1, pkgCall, o, nil)
	dump := string(s.AppendState(nil))
	want := []string{
		"ev when=1 prio=0 seq=1 cancelled=false fn=macaw/internal/sim.(*timerOwner).onTimeout argA=*sim.timerOwner argB=func(*sim.timerOwner)",
		"ev when=2 prio=-1 seq=2 cancelled=false fn=macaw/internal/sim.pkgCall argA=*sim.timerOwner argB=<nil>",
	}
	for _, w := range want {
		if !strings.Contains(dump, w+"\n") {
			t.Errorf("dump lacks %q:\n%s", w, dump)
		}
	}
	s.RunAll()
	if o.fired != 1 {
		t.Fatalf("Call trampoline fired the method %d times, want 1", o.fired)
	}
}

// TestCallAllocationFree pins the trampoline's point: arming and firing a
// method through Call allocates nothing, where a method value would.
func TestCallAllocationFree(t *testing.T) {
	s := New(1)
	o := &timerOwner{}
	if n := testing.AllocsPerRun(100, func() {
		s.AtPriorityCall(s.Now()+1, 0, Call[*timerOwner], o, (*timerOwner).onTimeout)
		s.Step()
	}); n != 0 {
		t.Fatalf("arming and firing through Call allocated %.1f times, want 0", n)
	}
}

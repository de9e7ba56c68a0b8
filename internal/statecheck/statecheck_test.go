package statecheck_test

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/dcf"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

const total, warmup, barrier = 3 * sim.Second, sim.Second, sim.Time(3 * sim.Second / 2)

// cell builds the conformance suite's contended three-station cell and
// runs it to the barrier.
func cell(f core.MACFactory) *core.Network {
	n := core.NewNetwork(7)
	b := n.AddStation("B", geom.V(0, 0, 12), f)
	p1 := n.AddStation("P1", geom.V(-4, 3, 6), f)
	p2 := n.AddStation("P2", geom.V(4, 3, 6), f)
	n.AddStream(p1, b, core.UDP, 30)
	n.AddStream(p2, b, core.UDP, 30)
	n.AddStream(b, p1, core.UDP, 10)
	n.Start(total, warmup)
	n.RunTo(barrier)
	return n
}

func macawCell() *core.Network { return cell(core.MACAWFactory(macaw.DefaultOptions())) }
func dcfCell() *core.Network   { return cell(core.DCFFactory(dcf.Options{})) }

// field returns the named field of the struct p points to, settable even
// when unexported.
func field(p any, name string) reflect.Value {
	f := reflect.ValueOf(p).Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

func engine(n *core.Network) *macaw.MACAW { return n.Station("P1").MAC().(*macaw.MACAW) }

// TestDumpCatchesMutations builds two identical networks, mutates one, and
// requires their dumps to differ: the divergences a hand-written dump was
// required to catch, and a field none of them carried.
func TestDumpCatchesMutations(t *testing.T) {
	if a, b := statecheck.Dump(macawCell()), statecheck.Dump(macawCell()); !bytes.Equal(a, b) {
		t.Fatal("identical networks dump differently")
	}
	halted := func() *core.Network {
		n := macawCell()
		engine(n).Halt()
		return n
	}
	for _, c := range []struct {
		name   string
		build  func() *core.Network
		mutate func(n *core.Network)
	}{
		{"extra RNG draw", macawCell, func(n *core.Network) { engine(n).Env.Rand.Int63() }},
		{"leaked pending timer", macawCell, func(n *core.Network) { n.Sim.At(n.End(), func() {}) }},
		{"extra counter increment", macawCell, func(n *core.Network) { engine(n).Counters.Retries++ }},
		{"changed backoff entry", macawCell, func(n *core.Network) {
			field(engine(n), "pol").Interface().(*backoff.PerDest).Peer(1).Local++
		}},
		{"packet queued after Halt", halted, func(n *core.Network) {
			field(engine(n), "streams").Interface().(*mac.StreamQueues).Push(&mac.Packet{Dst: 1, Size: 512})
		}},
		{"DCF retry.short on one side", dcfCell, func(n *core.Network) {
			if err := n.ApplyDelta("retry.short", 3); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		a, b := c.build(), c.build()
		c.mutate(b)
		if bytes.Equal(statecheck.Dump(a), statecheck.Dump(b)) {
			t.Errorf("%s: dumps agree", c.name)
		}
	}
}

// TestDumpIgnoresLayout checks the walker's exceptions from the other
// side: what they leave out is layout, so changing it leaves the dump as
// it was. Compacting the event queue at the first millisecond after the
// barrier where it holds a cancelled event leaves the end-of-run dump
// alone; poisoning every station's dead packets leaves the dump at the
// barrier and at the end alone; a simulator that took over a dead one's
// storage and generators dumps like a fresh one.
func TestDumpIgnoresLayout(t *testing.T) {
	end := func(n *core.Network) []byte {
		n.RunTo(n.End())
		return statecheck.Dump(n)
	}
	want := end(macawCell())

	n := macawCell()
	compacted := false
	for at := barrier; at < n.End() && !compacted; at += sim.Millisecond {
		n.RunTo(at)
		before := n.Sim.Pending()
		n.Sim.ForceCompact()
		compacted = n.Sim.Pending() < before
	}
	if !compacted {
		t.Fatal("no cancelled event to compact")
	}
	if !bytes.Equal(end(n), want) {
		t.Error("ForceCompact: end-of-run dumps differ")
	}

	n, at := macawCell(), statecheck.Dump(macawCell())
	dead := 0
	for _, st := range n.Stations() {
		for _, p := range field(st, "free").Interface().([]*mac.Packet) {
			*p = mac.Packet{Payload: []byte("dead packet!"), Size: -1, Dst: 0x7ffe}
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("no dead packet to poison at the barrier")
	}
	if !bytes.Equal(statecheck.Dump(n), at) {
		t.Error("poisoned free list: dumps at the barrier differ")
	}
	if !bytes.Equal(end(n), want) {
		t.Error("poisoned free list: end-of-run dumps differ")
	}

	old := sim.New(2)
	old.NewRand().Int63()
	old.NewRand().Int63() // a generator left spare after the draw below
	old.After(sim.Second, func() {})
	fresh, recycled := sim.New(1), sim.New(1)
	recycled.Recycle(old)
	for _, s := range []*sim.Simulator{fresh, recycled} {
		s.NewRand().Int63()
	}
	if !bytes.Equal(statecheck.Dump(recycled), statecheck.Dump(fresh)) {
		t.Error("Recycle: a recycled simulator dumps unlike a fresh one")
	}
}

type node struct {
	next *node
	m    map[string]int
}

// TestDumpCyclesAndMaps: a pointer cycle ends at its first repeat, map
// entries render in one order whatever their insertion order, and the dump
// tells a cycle from an equal-looking chain and one map value from another.
func TestDumpCyclesAndMaps(t *testing.T) {
	ring := func(keys ...string) *node {
		n := &node{m: map[string]int{}}
		for _, k := range keys {
			n.m[k] = len(k)
		}
		n.next = n
		return n
	}
	got := string(statecheck.Dump(ring("a", "bb", "ccc")))
	if want := "$=#1\n#1.next=@1\n#1.m=map[3]\n#1.m[\"a\"]=1\n#1.m[\"bb\"]=2\n#1.m[\"ccc\"]=3\n"; got != want {
		t.Fatalf("dump\n%s\nwant\n%s", got, want)
	}
	if other := string(statecheck.Dump(ring("ccc", "a", "bb"))); other != got {
		t.Errorf("insertion order changed the dump:\n%s", other)
	}
	chain := ring("a", "bb", "ccc")
	chain.next = &node{next: chain, m: chain.m}
	if string(statecheck.Dump(chain)) == got {
		t.Error("a two-node chain dumps like a one-node cycle")
	}
	changed := ring("a", "bb", "ccc")
	changed.m["bb"]++
	if string(statecheck.Dump(changed)) == got {
		t.Error("a changed map value leaves the dump as it was")
	}
}

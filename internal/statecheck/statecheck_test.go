package statecheck_test

import (
	"bytes"
	"fmt"
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
	n := startCell(core.NewNetwork(7), f)
	n.RunTo(barrier)
	return n
}

// startCell builds cell's stations and streams on n, which must come from
// seed 7, and starts its run.
func startCell(n *core.Network, f core.MACFactory) *core.Network {
	b := n.AddStation("B", geom.V(0, 0, 12), f)
	p1 := n.AddStation("P1", geom.V(-4, 3, 6), f)
	p2 := n.AddStation("P2", geom.V(4, 3, 6), f)
	n.AddStream(p1, b, core.UDP, 30)
	n.AddStream(p2, b, core.UDP, 30)
	n.AddStream(b, p1, core.UDP, 10)
	n.Start(total, warmup)
	return n
}

// macawFactory is macawCell's factory, shared so that a cell built on a
// network from core.Spares names the same func in its dump.
var macawFactory = core.MACAWFactory(macaw.DefaultOptions())

func macawCell() *core.Network { return cell(macawFactory) }
func dcfCell() *core.Network   { return cell(core.DCFFactory(dcf.Options{})) }

// field returns the named field of the struct p points to, settable even
// when unexported.
func field(p any, name string) reflect.Value {
	f := reflect.ValueOf(p).Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// settable returns v, which must be addressable, without the read-only
// mark reflect puts on what it reaches through unexported fields.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// storeBlocks returns the queue blocks of s that no queue holds: those on
// its free list, then those of its chunks not yet cut.
func storeBlocks(s *mac.Blocks) []reflect.Value {
	v := reflect.ValueOf(s).Elem()
	var out []reflect.Value
	for b := v.FieldByName("free"); !b.IsNil(); b = b.Elem().FieldByName("next") {
		out = append(out, b.Elem())
	}
	chunks := v.FieldByName("chunks")
	for c, i := int(v.FieldByName("c").Int()), int(v.FieldByName("i").Int()); c < chunks.Len(); c, i = c+1, 0 {
		for ch := chunks.Index(c); i < ch.Len(); i++ {
			out = append(out, ch.Index(i))
		}
	}
	return out
}

// fill sets every element of the slice s up to its capacity, or of a new
// slice of 8 when its capacity is smaller, to x.
func fill(s, x reflect.Value) {
	if s.Cap() < 8 {
		s.Set(reflect.MakeSlice(s.Type(), 8, 8))
	}
	s.Set(s.Slice(0, s.Cap()))
	for i := 0; i < s.Len(); i++ {
		s.Index(i).Set(x)
	}
}

// poisonFree fills the medium m's free transmission and reception records
// with state no record has when it is taken: stale times, stamps,
// positions and counts, and links to the radio r, the transmission tx and
// the reception rec.
func poisonFree(m, r, tx, rec reflect.Value) {
	txs, recs := settable(m.FieldByName("txFree")), settable(m.FieldByName("recFree"))
	for i := 0; i < txs.Len(); i++ {
		t := txs.Index(i).Elem()
		settable(t.FieldByName("radio")).Set(r)
		settable(t.FieldByName("end")).SetInt(1 << 62)
		settable(t.FieldByName("seq")).SetUint(1 << 60)
		settable(t.FieldByName("idx")).SetInt(99)
		settable(t.FieldByName("pending")).SetInt(7)
		settable(t.FieldByName("payload")).SetBytes([]byte("stale payload bytes"))
		fill(settable(t.FieldByName("rx")), rec)
	}
	for i := 0; i < recs.Len(); i++ {
		q := recs.Index(i).Elem()
		settable(q.FieldByName("radio")).Set(r)
		settable(q.FieldByName("power")).SetFloat(1e300)
		settable(q.FieldByName("corrupted")).SetBool(true)
		settable(q.FieldByName("tx")).Set(tx)
		settable(q.FieldByName("pos")).SetInt(99)
	}
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
// alone; poisoning every station's dead packets, the network's slab
// packets no station has taken yet, or the slots of the queue blocks no
// queue holds, leaves the dump at the barrier and at the end alone; a
// simulator that took over a dead one's storage and generators dumps like
// a fresh one.
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
			*p = mac.Packet{Payload: []byte("dead packet!"), Size: 0xffff, Dst: 0x7ffe}
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

	// The slab's unused tail: packets SendSegment has not taken yet, which
	// a network built through core.Spares inherits with whatever an
	// earlier owner left in them.
	n = macawCell()
	blocks, used := field(n, "blocks"), int(field(n, "used").Int())
	tail := 0
	for i := used; i < blocks.Len()*32; i++ {
		p := blocks.Index(i / 32).Elem().Index(i % 32).Addr().Interface().(*mac.Packet)
		*p = mac.Packet{Payload: []byte("unused packet"), Size: 0xffff, Dst: 0x7ffe}
		p.SetSeq(0xdead)
		tail++
	}
	if tail == 0 {
		t.Fatal("no unused slab packet to poison at the barrier")
	}
	if !bytes.Equal(statecheck.Dump(n), at) {
		t.Error("poisoned slab tail: dumps at the barrier differ")
	}
	if !bytes.Equal(end(n), want) {
		t.Error("poisoned slab tail: end-of-run dumps differ")
	}
	if int(field(n, "used").Int()) == used {
		t.Error("the run took no packet from the poisoned tail")
	}

	// The queue blocks no queue holds: those on the store's free list and
	// those not yet cut from its chunks, which a network built through
	// core.Spares inherits with whatever an earlier owner left in them. A
	// load.rate delta at the barrier grows the backlog, so the queues take
	// blocks from the store before the end.
	loaded := func(n *core.Network) []byte {
		if err := n.ApplyDelta("load.rate", 96); err != nil {
			t.Fatal(err)
		}
		return end(n)
	}
	wantLoaded := loaded(macawCell())
	n = macawCell()
	spare := storeBlocks(field(n, "queues").Interface().(*mac.Blocks))
	poison := &mac.Packet{Payload: []byte("stale queue slot"), Size: 0xffff, Dst: 0x7ffe}
	for _, b := range spare {
		slots := settable(b.FieldByName("slots"))
		for i := 0; i < slots.Len(); i++ {
			slots.Index(i).Set(reflect.ValueOf(poison))
		}
	}
	if len(spare) == 0 {
		t.Fatal("no spare queue block to poison at the barrier")
	}
	if !bytes.Equal(statecheck.Dump(n), at) {
		t.Error("poisoned queue blocks: dumps at the barrier differ")
	}
	if !bytes.Equal(loaded(n), wantLoaded) {
		t.Error("poisoned queue blocks: end-of-run dumps differ")
	}
	taken := 0
	for _, b := range spare {
		if b.FieldByName("slots").Index(0).Pointer() != uintptr(unsafe.Pointer(poison)) {
			taken++
		}
	}
	if taken == 0 {
		t.Error("the run took no poisoned queue block")
	}

	// The medium's storage a network built through core.Spares takes
	// over: the radio records of a larger network released half way
	// through its run, each with its neighbor, audible and reception
	// lists and its gain row, and its free transmission and reception
	// records. Every one is poisoned before the cell attaches its
	// stations, and the live medium's free records again at the barrier.
	// The dumps are compared after each of the first 400 events, while the
	// first transmissions are on the air in records taken from poison,
	// then every 5 ms.
	sp := new(core.Spares)
	donor := sp.Network(3)
	base := donor.AddStation("B", geom.V(0, 0, 12), macawFactory)
	for i := 1; i <= 4; i++ {
		p := donor.AddStation(fmt.Sprintf("P%d", i), geom.V(float64(2*i-5), 3, 6), macawFactory)
		donor.AddStream(p, base, core.UDP, 64)
	}
	donor.Start(total, warmup)
	donor.RunTo(barrier)
	donor.Release()
	n = sp.Network(7)
	m := reflect.ValueOf(n.Medium).Elem()
	radios := settable(m.FieldByName("spare"))
	if radios.Len() < 3 || m.FieldByName("txFree").Len() == 0 || m.FieldByName("recFree").Len() == 0 {
		t.Fatalf("the medium took over %d radio, %d transmission and %d reception records, want 3 or more and some",
			radios.Len(), m.FieldByName("txFree").Len(), m.FieldByName("recFree").Len())
	}
	r := settable(radios.Index(0))
	tx := settable(m.FieldByName("txFree").Index(0))
	rec := settable(m.FieldByName("recFree").Index(0))
	poisoned := map[uintptr]bool{}
	for i := 0; i < radios.Len(); i++ {
		q := radios.Index(i).Elem()
		poisoned[radios.Index(i).Pointer()] = true
		settable(q.FieldByName("tx")).Set(tx)
		settable(q.FieldByName("carrierBusy")).SetBool(true)
		settable(q.FieldByName("enabled")).SetBool(false)
		fill(settable(q.FieldByName("nbr")), r)
		fill(settable(q.FieldByName("audible")), tx)
		fill(settable(q.FieldByName("recs")), rec)
		fill(settable(q.FieldByName("gains")), reflect.ValueOf(1e6))
	}
	poisonFree(m, r, tx, rec)
	startCell(n, macawFactory)
	for _, st := range n.Stations() {
		if !poisoned[reflect.ValueOf(st.Radio()).Pointer()] {
			t.Fatalf("station %s did not attach into a poisoned radio record", st.Name())
		}
	}
	ref := startCell(core.NewNetwork(7), macawFactory)
	for k, at := 0, sim.Time(0); at < n.End(); k++ {
		if k < 400 {
			n.Sim.Step()
			ref.Sim.Step()
			at = n.Sim.Now()
		} else {
			at = min(at+5*sim.Millisecond, n.End())
			n.RunTo(at)
			ref.RunTo(at)
		}
		if !bytes.Equal(statecheck.Dump(n), statecheck.Dump(ref)) {
			t.Errorf("poisoned radio, transmission and reception records: dumps at %v differ", at)
			break
		}
		if at == barrier {
			poisonFree(m, r, tx, rec)
		}
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

package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"macaw/internal/backoff"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/dcf"
	"macaw/internal/mac/maca"
	"macaw/internal/mac/macaw"
	"macaw/internal/mac/token"
	"macaw/internal/mac/tournament"
	"macaw/internal/phy"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
	"macaw/internal/transport"
)

// sparesOrder lists deltaFactories' engines in a fixed order: each one's
// donor cell runs the engine after it.
var sparesOrder = []string{"CSMA", "MACA", "MACAW", "token", "DCF", "TOURN"}

// donorCell builds, runs and releases through sp a cell larger than
// buildDeltaNet's in every store Spares hands on: as many stations (the
// token ring holds four) but twice the streams, so more random streams,
// and a longer run at a higher load, so more packets, offer words and
// event records. It attaches a MAC observer factory, which skips every
// station, so a network that kept the donor's would dump differently from
// a fresh one. It returns the cell's network.
func donorCell(sp *Spares, f func() MACFactory) *Network {
	n := sp.Network(11)
	n.AddMACObserver(func(*Station) mac.Observer { return nil })
	b := n.AddStation("B", geom.V(0, 0, 12), f())
	for i := 1; i <= 3; i++ {
		p := n.AddStation(fmt.Sprintf("P%d", i), geom.V(float64(2*i-4), 3, 6), f())
		n.AddStream(p, b, UDP, 64)
		n.AddStream(b, p, UDP, 32)
	}
	n.Run(8*sim.Second, sim.Second)
	n.Release()
	return n
}

// TestSparesPassiveOnAllBackends builds each backend's delta cell in the
// record of a larger cell that Spares took back, and requires its state
// dump at the barrier and at the end, and its Results, to equal a fresh
// network's. The donor runs another engine, or the same one, so that each
// station's engine is rebuilt in the record of the donor's; and the same
// engine again with every station, stream and engine record the donor
// left poisoned, the tails of their slices included (see poisonSpares).
// A load.rate delta at the barrier makes every stream offer past the words
// Start cut for it.
func TestSparesPassiveOnAllBackends(t *testing.T) {
	const total, warmup = 6 * sim.Second, 2 * sim.Second
	barrier := sim.Time(total / 2)
	run := func(n *Network) (at, end []byte, res Results) {
		n.Start(total, warmup)
		n.RunTo(barrier)
		at = statecheck.Dump(n)
		if err := n.ApplyDelta("load.rate", 96); err != nil {
			t.Fatal(err)
		}
		n.RunTo(n.End())
		return at, statecheck.Dump(n), n.Collect()
	}
	factories := deltaFactories()
	for i, name := range sparesOrder {
		t.Run(name, func(t *testing.T) {
			f := factories[name]
			wantAt, wantEnd, want := run(buildDeltaNet(3, f))
			other := sparesOrder[(i+1)%len(sparesOrder)]
			for _, c := range []struct {
				donor  string
				poison bool
			}{{other, false}, {name, false}, {name, true}} {
				label := "from_" + c.donor
				if c.poison {
					label += "_poisoned"
				}
				t.Run(label, func(t *testing.T) {
					sp := new(Spares)
					donor := donorCell(sp, factories[c.donor])
					engines := make([]mac.Engine, len(donor.stations))
					for k, st := range donor.stations {
						engines[k] = st.mac
					}
					blocks := len(donor.blocks)
					if c.poison {
						poisonSpares(sp)
					}
					n := deltaNetFrom(sp, 3, f)
					if n != donor || len(n.blocks) != blocks || blocks == 0 || n.words == nil || len(sp.nets) != 0 {
						t.Fatalf("the new network was not built in the donor's record with its %d blocks: %d blocks, %d words, %d networks left",
							blocks, len(n.blocks), cap(n.words), len(sp.nets))
					}
					for k, st := range n.stations {
						if (st.mac == engines[k]) != (c.donor == name) {
							t.Fatalf("station %s: engine built in the donor's record %v, want %v",
								st.name, st.mac == engines[k], c.donor == name)
						}
					}
					at, end, res := run(n)
					if !bytes.Equal(at, wantAt) {
						t.Error("dumps at the barrier differ from a fresh network's")
					}
					if !bytes.Equal(end, wantEnd) {
						t.Error("end-of-run dumps differ from a fresh network's")
					}
					if !reflect.DeepEqual(res, want) {
						t.Errorf("Results differ from a fresh network's:\n%v\nwant:\n%v", res, want)
					}
					if n.used > blocks*packetsPerBlock || len(n.blocks) != blocks {
						t.Errorf("the cell took %d packets, grew the slab to %d blocks: the donor's %d blocks did not cover it",
							n.used, len(n.blocks), blocks)
					}
				})
			}
		})
	}
}

// poisonSpares overwrites every station and stream record of the
// networks sp holds, those past the lists' lengths included, and every
// record of a type rebuilt in place that they reach (their MAC
// environments, engines, policies and stream queues), with state no fresh
// record holds: every scalar; every slice, grown to its capacity, or to 8
// elements when it holds fewer, with each element poisoned; every func,
// with one that panics; and every pointer to, or interface holding, a
// record of another type, with a new record of garbage. What a network
// builds in the records must rewrite each of them before it is read.
func poisonSpares(sp *Spares) {
	p := poisoner{seen: map[poisonKey]bool{}, owned: map[reflect.Type]bool{}}
	for _, v := range []any{
		Station{}, Stream{}, mac.Env{}, mac.StreamQueues{}, mac.Queue{}, backoff.PerDest{},
		csma.CSMA{}, maca.MACA{}, macaw.MACAW{}, token.Token{}, dcf.DCF{}, tournament.Tournament{},
	} {
		p.owned[reflect.TypeOf(v)] = true
	}
	for _, n := range sp.nets {
		for _, list := range []reflect.Value{reflect.ValueOf(n.stations), reflect.ValueOf(n.streams)} {
			list = list.Slice(0, list.Cap())
			for i := 0; i < list.Len(); i++ {
				p.poison(list.Index(i))
			}
		}
	}
}

type poisonKey struct {
	p uintptr
	t reflect.Type
}

type poisoner struct {
	owned map[reflect.Type]bool
	seen  map[poisonKey]bool
}

// poison rewrites v, a settable value, and what it owns.
func (p *poisoner) poison(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(77)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(77)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(77.5)
	case reflect.String:
		v.SetString("poison")
	case reflect.Slice:
		if v.Cap() < 8 {
			v.Set(reflect.MakeSlice(v.Type(), 8, 8))
		}
		v.Set(v.Slice(0, v.Cap()))
		for i := 0; i < v.Len(); i++ {
			p.poison(v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			p.poison(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			p.poison(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Pointer:
		if !p.owned[v.Type().Elem()] {
			v.Set(p.garbage(v.Type().Elem()))
			return
		}
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		p.record(v)
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		e := v.Elem()
		switch {
		case e.Kind() == reflect.Pointer && p.owned[e.Type().Elem()]:
			p.record(e)
		case e.Kind() == reflect.Pointer:
			v.Set(p.garbage(e.Type().Elem()))
		default:
			c := reflect.New(e.Type()).Elem()
			p.poison(c)
			v.Set(c)
		}
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			panic("core: a poisoned func was called")
		}))
	}
}

// record poisons the owned record ptr points to, once.
func (p *poisoner) record(ptr reflect.Value) {
	k := poisonKey{ptr.Pointer(), ptr.Type()}
	if !p.seen[k] {
		p.seen[k] = true
		p.poison(ptr.Elem())
	}
}

// garbage returns a pointer to a new record of type t whose scalars are
// poisoned.
func (p *poisoner) garbage(t reflect.Type) reflect.Value {
	g := reflect.New(t)
	if t.Kind() == reflect.Struct {
		for i := 0; i < t.NumField(); i++ {
			f := g.Elem().Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			switch f.Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan,
				reflect.Struct, reflect.Array, reflect.UnsafePointer:
			default:
				p.poison(f)
			}
		}
	}
	return g
}

// TestSparesReleasedNetworkFailsClosed requires every way of running a
// released network, a second Release, adding a station, whose radio
// would attach to a medium the next network may own, and a station's
// sending, crashing and restarting, whose engine and radio records the
// next network may rebuild, to panic, whether or not it was built through
// Spares.
func TestSparesReleasedNetworkFailsClosed(t *testing.T) {
	for _, sp := range []*Spares{nil, new(Spares)} {
		n := sp.Network(1)
		f := deltaFactories()["MACAW"]
		p := n.AddStation("P", geom.V(-4, 0, 6), f())
		b := n.AddStation("B", geom.V(0, 0, 12), f())
		n.AddStream(p, b, UDP, 64)
		n.Run(2*sim.Second, sim.Second)
		n.Release()
		for _, c := range []struct {
			name string
			fn   func()
		}{
			{"Start", func() { n.Start(2*sim.Second, sim.Second) }},
			{"RunTo", func() { n.RunTo(3 * sim.Second) }},
			{"Collect", func() { n.Collect() }},
			{"Release", func() { n.Release() }},
			{"AddStation", func() { n.AddStation("Q", geom.V(4, 0, 6), f()) }},
			{"SendSegment", func() { p.SendSegment(b.ID(), transport.Segment{Proto: transport.ProtoUDP}, 512) }},
			{"Crash", func() { p.Crash() }},
			{"Restart", func() { p.Restart() }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("spares %v: %s on a released network did not panic", sp != nil, c.name)
					}
				}()
				c.fn()
			}()
		}
	}
}

// saturatedCell builds through sp a base and four pads offering 64 pps
// each, past what one cell carries, so the backlog grows all run.
func saturatedCell(sp *Spares) *Network {
	n := sp.Network(5)
	f := deltaFactories()["MACAW"]
	b := n.AddStation("B", geom.V(0, 0, 12), f())
	for i := 1; i <= 4; i++ {
		p := n.AddStation(fmt.Sprintf("P%d", i), geom.V(float64(2*i-5), 3, 6), f())
		n.AddStream(p, b, UDP, 64)
	}
	return n
}

// TestSparesReuseAllocatesLess runs two saturated cells through one Spares:
// the second takes over the first's random generators, event storage,
// packets with their payload buffers, offer words and MAC queue blocks,
// and is built in its station, stream and engine records, so it must
// allocate less than a quarter of the bytes the first does. What it still
// allocates is its random streams, the closures its callbacks are bound
// through and the run's fixed costs.
func TestSparesReuseAllocatesLess(t *testing.T) {
	sp := new(Spares)
	cell := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := saturatedCell(sp)
		n.Run(20*sim.Second, 2*sim.Second)
		n.Release()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := cell(), cell()
	t.Logf("first cell %d bytes, second %d (%.1f%%)", first, second, 100*float64(second)/float64(first))
	if second*4 >= first {
		t.Fatalf("second cell allocated %d bytes, want less than a quarter of the first's %d", second, first)
	}
}

// queueChunks reports how many chunks the queue-block store s holds and
// how many blocks it has cut from them.
func queueChunks(s *mac.Blocks) (chunks, cut int) {
	v := reflect.ValueOf(s).Elem()
	cs, c := v.FieldByName("chunks"), int(v.FieldByName("c").Int())
	cut = int(v.FieldByName("i").Int())
	for k := 0; k < c; k++ {
		cut += cs.Index(k).Len()
	}
	return cs.Len(), cut
}

// TestSparesQueueBlocksHandedOn runs two saturated cells through one
// Spares: the second, built in the first's record, takes back every chunk
// of queue blocks the first cut, and its backlog, as deep as the first's,
// takes every block it needs from them and allocates no chunk of its own.
func TestSparesQueueBlocksHandedOn(t *testing.T) {
	sp := new(Spares)
	first := saturatedCell(sp)
	first.Run(20*sim.Second, 2*sim.Second)
	chunks, cut := queueChunks(first.queues)
	if cut <= 32 {
		t.Fatalf("the first cell cut %d queue blocks: not saturated", cut)
	}
	first.Release()

	second := saturatedCell(sp)
	if c, cut0 := queueChunks(second.queues); second != first || c != chunks || cut0 != 0 {
		t.Fatalf("the second cell holds %d of %d chunks with %d blocks cut; built in the first's record: %v",
			c, chunks, cut0, second == first)
	}
	second.Run(20*sim.Second, 2*sim.Second)
	if c, cut2 := queueChunks(second.queues); c != chunks || cut2 != cut {
		t.Fatalf("the second cell holds %d chunks and cut %d blocks, want the first's %d and %d", c, cut2, chunks, cut)
	}
	second.Release()
}

// mediumRecords returns the addresses of m's radio, transmission and
// reception records: those attached or on the air, and those on its free
// lists.
func mediumRecords(m *phy.Medium) (radios, txs, recs map[uintptr]bool) {
	radios, txs, recs = map[uintptr]bool{}, map[uintptr]bool{}, map[uintptr]bool{}
	add := func(set map[uintptr]bool, list reflect.Value) {
		for i := 0; i < list.Len(); i++ {
			set[list.Index(i).Pointer()] = true
		}
	}
	v := reflect.ValueOf(m).Elem()
	add(radios, v.FieldByName("radios"))
	add(txs, v.FieldByName("txFree"))
	add(txs, v.FieldByName("active"))
	add(recs, v.FieldByName("recFree"))
	for i, active := 0, v.FieldByName("active"); i < active.Len(); i++ {
		add(recs, active.Index(i).Elem().FieldByName("rx"))
	}
	return radios, txs, recs
}

// TestSparesMediumHandedOn runs two saturated cells through one Spares:
// the second builds its medium in the first's record, attaches its
// stations into the first's radio records and takes every transmission
// and reception record it needs from the first's, so it allocates none of
// the four.
func TestSparesMediumHandedOn(t *testing.T) {
	sp := new(Spares)
	first := saturatedCell(sp)
	first.Run(20*sim.Second, 2*sim.Second)
	medium := first.Medium
	radios, txs, recs := mediumRecords(medium)
	first.Release()

	second := saturatedCell(sp)
	if second.Medium != medium {
		t.Error("the second cell built a medium of its own")
	}
	second.Run(20*sim.Second, 2*sim.Second)
	radios2, txs2, recs2 := mediumRecords(second.Medium)
	for _, c := range []struct {
		kind        string
		first, next map[uintptr]bool
	}{
		{"radio", radios, radios2},
		{"transmission", txs, txs2},
		{"reception", recs, recs2},
	} {
		fresh := 0
		for p := range c.next {
			if !c.first[p] {
				fresh++
			}
		}
		if len(c.next) == 0 || fresh > 0 {
			t.Errorf("the second cell holds %d %s records, %d of them new; the first held %d",
				len(c.next), c.kind, fresh, len(c.first))
		}
	}
	second.Release()
}

// TestSparesBoundedUnderOverlap runs k saturated cells at once through one
// Spares, round after round: each round builds all k before it releases
// any. Every cell needs what a fresh one does, so after each round the
// Spares must hold k networks and no more packet blocks or queue-block
// chunks than k fresh cells grow to; storage handed to one cell whole, and
// given back on top of what the others grew, would pile up round on round.
func TestSparesBoundedUnderOverlap(t *testing.T) {
	const k, rounds = 2, 5
	const total, warmup = 10 * sim.Second, sim.Second
	fresh := saturatedCell(nil)
	fresh.Run(total, warmup)
	needBlocks := len(fresh.blocks)
	needChunks, _ := queueChunks(fresh.queues)
	if needBlocks == 0 || needChunks == 0 {
		t.Fatalf("a fresh cell grew %d packet blocks and %d queue chunks: not saturated", needBlocks, needChunks)
	}

	sp := new(Spares)
	for r := 1; r <= rounds; r++ {
		cells := make([]*Network, k)
		for i := range cells {
			cells[i] = saturatedCell(sp)
		}
		for _, n := range cells {
			n.Run(total, warmup)
		}
		for _, n := range cells {
			n.Release()
		}
		blocks, chunks := 0, 0
		for _, n := range sp.nets {
			c, _ := queueChunks(n.queues)
			blocks, chunks = blocks+len(n.blocks), chunks+c
		}
		t.Logf("round %d: %d networks, %d packet blocks, %d queue chunks", r, len(sp.nets), blocks, chunks)
		if len(sp.nets) != k || blocks > k*needBlocks || chunks > k*needChunks {
			t.Fatalf("round %d: the Spares holds %d networks, %d packet blocks and %d queue chunks; "+
				"%d cells need %d blocks and %d chunks", r, len(sp.nets), blocks, chunks, k, k*needBlocks, k*needChunks)
		}
	}
}

// TestSparesConcurrentHandOff builds, runs and releases cells of all six
// engines through one Spares from several goroutines at once; each must
// report what a fresh network does. Run it under the race detector.
func TestSparesConcurrentHandOff(t *testing.T) {
	const total, warmup = 3 * sim.Second, sim.Second
	factories := deltaFactories()
	want := make(map[string]Results)
	for _, name := range sparesOrder {
		want[name] = buildDeltaNet(3, factories[name]).Run(total, warmup)
	}
	sp := new(Spares)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sparesOrder {
				name := sparesOrder[(g+k)%len(sparesOrder)]
				n := deltaNetFrom(sp, 3, factories[name])
				res := n.Run(total, warmup)
				n.Release()
				if !reflect.DeepEqual(res, want[name]) {
					t.Errorf("goroutine %d: %s through shared Spares differs from a fresh network", g, name)
				}
			}
		}(g)
	}
	wg.Wait()
}

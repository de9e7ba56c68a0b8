package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/phy"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
)

// sparesOrder lists deltaFactories' engines in a fixed order: each one's
// donor cell runs the engine after it.
var sparesOrder = []string{"CSMA", "MACA", "MACAW", "token", "DCF", "TOURN"}

// donorCell builds, runs and releases through sp a cell larger than
// buildDeltaNet's in every store Spares hands on: as many stations (the
// token ring holds four) but twice the streams, so more random streams,
// and a longer run at a higher load, so more packets, offer words and
// event records.
func donorCell(sp *Spares, f func() MACFactory) {
	n := sp.Network(11)
	b := n.AddStation("B", geom.V(0, 0, 12), f())
	for i := 1; i <= 3; i++ {
		p := n.AddStation(fmt.Sprintf("P%d", i), geom.V(float64(2*i-4), 3, 6), f())
		n.AddStream(p, b, UDP, 64)
		n.AddStream(b, p, UDP, 32)
	}
	n.Run(8*sim.Second, sim.Second)
	n.Release()
}

// TestSparesPassiveOnAllBackends builds each backend's delta cell from
// the storage a larger cell of another engine released, and requires its
// state dump at the barrier and at the end, and its Results, to equal a
// fresh network's. A load.rate delta at the barrier makes every stream
// offer past the words Start cut for it.
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

			sp := new(Spares)
			donorCell(sp, factories[sparesOrder[(i+1)%len(sparesOrder)]])
			if len(sp.bundles) != 1 {
				t.Fatalf("the donor left %d bundles, want 1", len(sp.bundles))
			}
			blocks := len(sp.bundles[0].blocks)
			n := deltaNetFrom(sp, 3, f)
			if len(n.blocks) != blocks || blocks == 0 || n.words == nil || len(sp.bundles) != 0 {
				t.Fatalf("the new network took %d of %d blocks, %d words, left %d bundles",
					len(n.blocks), blocks, cap(n.words), len(sp.bundles))
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
}

// TestSparesReleasedNetworkFailsClosed requires every way of running a
// released network, a second Release and adding a station, whose radio
// would attach to a medium the next network may own, to panic, whether or
// not it was built through Spares.
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
// packets with their payload buffers, offer words and MAC queue blocks, so
// it must allocate less than a quarter of the bytes the first does. What
// it still allocates is its stations, engines and the run's fixed costs.
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
// Spares: the second takes over every chunk of queue blocks the first
// cut, and its backlog, as deep as the first's, takes every block it
// needs from them and allocates no chunk of its own.
func TestSparesQueueBlocksHandedOn(t *testing.T) {
	sp := new(Spares)
	first := saturatedCell(sp)
	first.Run(20*sim.Second, 2*sim.Second)
	chunks, cut := queueChunks(first.queues)
	if cut <= 32 {
		t.Fatalf("the first cell cut %d queue blocks: not saturated", cut)
	}
	first.Release()
	if c, _ := queueChunks(first.queues); c != 0 {
		t.Fatalf("a released network kept %d chunks", c)
	}

	second := saturatedCell(sp)
	if c, _ := queueChunks(second.queues); c != chunks {
		t.Fatalf("the second cell took %d of %d chunks", c, chunks)
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
// Spares must hold k bundles and no more packet blocks or queue-block
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
		for i := range sp.bundles {
			c, _ := queueChunks(&sp.bundles[i].queues)
			blocks, chunks = blocks+len(sp.bundles[i].blocks), chunks+c
		}
		t.Logf("round %d: %d bundles, %d packet blocks, %d queue chunks", r, len(sp.bundles), blocks, chunks)
		if len(sp.bundles) != k || blocks > k*needBlocks || chunks > k*needChunks {
			t.Fatalf("round %d: the Spares holds %d bundles, %d packet blocks and %d queue chunks; "+
				"%d cells need %d blocks and %d chunks", r, len(sp.bundles), blocks, chunks, k, k*needBlocks, k*needChunks)
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
